package train

import (
	"math"

	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
)

// SoftmaxCrossEntropy returns the loss and dL/dlogits for one sample.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (loss float64, delta *tensor.Tensor) {
	return softmaxCrossEntropyInto(nil, logits, label)
}

// softmaxCrossEntropyInto is SoftmaxCrossEntropy computing the softmax,
// and from it dL/dlogits, in delta when delta already has logits' shape.
func softmaxCrossEntropyInto(delta, logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	delta = tensor.SoftmaxInto(delta, logits)
	d := delta.Data()
	loss := -math.Log(math.Max(d[label], 1e-12))
	d[label]--
	return loss, delta
}

// L2Loss returns the squared-error loss and its gradient against a one-hot
// target (paper Eq. 3's δ_L = y_target − y_pred, with the sign folded into
// the returned gradient dL/dy = y_pred − y_target).
func L2Loss(pred *tensor.Tensor, label int) (loss float64, delta *tensor.Tensor) {
	delta = pred.Clone()
	delta.Set(delta.At(label)-1, label)
	for _, v := range delta.Data() {
		loss += 0.5 * v * v
	}
	return loss, delta
}

// Trainer runs per-sample SGD with configurable nonideality injection.
type Trainer struct {
	Net *Network
	LR  float64

	// Target selects which operand the device noise corrupts; Sigma is
	// the relative strength (Table VI's σ).
	Target NoiseTarget
	Sigma  float64
	Seed   int64

	// WriteInterval is how many SGD steps accumulate digitally before the
	// updated weights are reprogrammed into the device (Table II's batch
	// size by default). Each reprogramming lands with persistent write
	// error in the weight-noise case.
	WriteInterval int
}

// Train runs the given number of epochs over the dataset and returns the
// final average training loss.
func (t *Trainer) Train(ds *data.Dataset, epochs int) float64 {
	var readNoise, writeNoise, actNoise *rram.NoiseModel
	switch t.Target {
	case NoiseWeights:
		// Both a transient read error on every use and a persistent write
		// error on every update — the WS exposure.
		readNoise = rram.NewNoiseModel(t.Sigma, t.Seed+1)
		writeNoise = rram.NewNoiseModel(t.Sigma, t.Seed+2)
		t.Net.SetWeightReadNoise(readNoise)
	case NoiseActivations:
		// Transient only: activations are rewritten every pass — the IS
		// exposure.
		actNoise = rram.NewNoiseModel(t.Sigma, t.Seed+3)
		t.Net.ActNoise = actNoise
	}
	defer func() {
		t.Net.SetWeightReadNoise(nil)
		t.Net.ActNoise = nil
	}()

	interval := t.WriteInterval
	if interval <= 0 {
		interval = 64
	}
	lastLoss := 0.0
	steps := 0
	var delta *tensor.Tensor // the loss gradient's scratch
	for e := 0; e < epochs; e++ {
		sum := 0.0
		for _, s := range ds.Samples {
			var loss float64
			loss, delta = softmaxCrossEntropyInto(delta, t.Net.forward(s.Image), s.Label)
			sum += loss
			sanitize(delta)
			t.Net.Backward(delta)
			t.Net.Step(t.LR, nil)
			steps++
			if steps%interval == 0 {
				// Batch boundary: the accumulated update is written into
				// the device, landing with persistent error in the
				// weight-noise case.
				t.Net.PerturbWeights(writeNoise)
			}
		}
		lastLoss = sum / float64(len(ds.Samples))
	}
	return lastLoss
}

// sanitize clamps the loss gradient so device-noise-induced blow-ups
// degrade accuracy (the effect Table VI measures) rather than producing
// NaN weights.
func sanitize(delta *tensor.Tensor) {
	const clip = 10.0
	d := delta.Data()
	for i, v := range d {
		switch {
		case math.IsNaN(v):
			d[i] = 0
		case v > clip:
			d[i] = clip
		case v < -clip:
			d[i] = -clip
		}
	}
}

// Accuracy evaluates top-1 accuracy (percent) on a dataset. Evaluation is
// batch-parallel for hook-free networks (see Network.ForwardBatch); the
// result is identical to a serial pass in either mode.
func Accuracy(net *Network, ds *data.Dataset) float64 {
	xs := make([]*tensor.Tensor, len(ds.Samples))
	for i, s := range ds.Samples {
		xs[i] = s.Image
	}
	correct := 0
	for i, out := range net.ForwardBatch(xs) {
		best, bestV := 0, math.Inf(-1)
		for j, v := range out.Data() {
			if v > bestV {
				best, bestV = j, v
			}
		}
		if best == ds.Samples[i].Label {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(ds.Samples))
}
