package insitu

import (
	"math"
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
)

// TestForwardBatchMatchesPerImage verifies the 3D batch sweep produces
// exactly the per-image results.
func TestForwardBatchMatchesPerImage(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := smallNet(42)
	batch := []*tensor.Tensor{
		tensor.Randn(rng, 1, 1, 12, 12),
		tensor.Randn(rng, 1, 1, 12, 12),
		tensor.Randn(rng, 1, 1, 12, 12),
	}
	m := New(Options{})
	outs := m.ForwardBatch(net, batch)
	for p, x := range batch {
		want := net.Forward(x)
		if !outs[p].Equal(want, 1e-9) {
			t.Fatalf("image %d: batched forward differs from software", p)
		}
	}
}

// TestTrainStepBatchOfOneEqualsTrainStep checks that one image is a
// batch of one, bit for bit, under every device setting: Forward equals
// ForwardBatch of one, TrainStep equals TrainStepBatch of one (loss and
// updated parameters), and both machines count the same device events.
func TestTrainStepBatchOfOneEqualsTrainStep(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := tensor.Randn(rng, 1, 1, 12, 12)
	for _, tc := range []struct {
		name string
		opt  func() Options
	}{
		{"ideal", func() Options { return Options{} }},
		{"8/8", func() Options { return Options{WeightBits: 8, ActivationBits: 8} }},
		{"ADC 4", func() Options { return Options{ADCBits: 4} }},
		{"noise", func() Options { return Options{ActNoise: rram.NewNoiseModel(0.05, 10)} }},
		{"8/8 + ADC 4", func() Options { return Options{WeightBits: 8, ActivationBits: 8, ADCBits: 4} }},
		{"A4 + ADC 6", func() Options { return Options{ActivationBits: 4, ADCBits: 6} }},
	} {
		a := smallNet(44)
		b := a.Clone()
		ma, mb := New(tc.opt()), New(tc.opt())
		if !sameBits(ma.Forward(a, x).Data(), mb.ForwardBatch(b, []*tensor.Tensor{x})[0].Data()) {
			t.Errorf("%s: Forward and ForwardBatch of one differ", tc.name)
		}
		lossA := ma.TrainStep(a, x, 1, 0.05)
		lossB := mb.TrainStepBatch(b, []*tensor.Tensor{x}, []int{1}, 0.05)
		if math.Float64bits(lossA) != math.Float64bits(lossB) {
			t.Errorf("%s: losses differ: %v vs %v", tc.name, lossA, lossB)
		}
		for i := range a.Layers {
			switch la := a.Layers[i].(type) {
			case *train.Conv:
				if !sameBits(la.W.Data(), b.Layers[i].(*train.Conv).W.Data()) {
					t.Errorf("%s: conv %d weights diverged", tc.name, i)
				}
			case *train.FC:
				lb := b.Layers[i].(*train.FC)
				if !sameBits(la.W.Data(), lb.W.Data()) || !sameBits(la.B.Data(), lb.B.Data()) {
					t.Errorf("%s: fc %d parameters diverged", tc.name, i)
				}
			}
		}
		if ma.Stats() != mb.Stats() {
			t.Errorf("%s: device events differ: %+v vs %+v", tc.name, ma.Stats(), mb.Stats())
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainStepBatchEqualsMeanGradient verifies the batch step applies the
// mean of the per-sample gradients — the mathematically correct batch-SGD
// step computed with one 3D sweep.
func TestTrainStepBatchEqualsMeanGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const b = 3
	xs := make([]*tensor.Tensor, b)
	labels := make([]int, b)
	for p := range xs {
		xs[p] = tensor.Randn(rng, 1, 1, 12, 12)
		labels[p] = p % 4
	}
	const lr = 0.05

	hw := smallNet(46)
	sw := hw.Clone()

	New(Options{}).TrainStepBatch(hw, xs, labels, lr)

	// Software reference: accumulate per-sample gradients on a frozen
	// model, then apply the mean once.
	accW := map[int]*tensor.Tensor{}
	accB := map[int]*tensor.Tensor{}
	frozen := sw.Clone()
	for p := range xs {
		step := frozen.Clone()
		out := step.Forward(xs[p])
		_, delta := train.SoftmaxCrossEntropy(out, labels[p])
		step.Backward(delta)
		// Harvest gradients by diffing a unit step.
		for i, l := range step.Layers {
			switch tl := l.(type) {
			case *train.Conv:
				before := tl.W.Clone()
				tl.Step(1, nil)
				g := before.SubInPlace(tl.W) // = dW
				if accW[i] == nil {
					accW[i] = tensor.New(g.Dims()...)
				}
				accW[i].AddInPlace(g)
			case *train.FC:
				beforeW := tl.W.Clone()
				beforeB := tl.B.Clone()
				tl.Step(1, nil)
				gw := beforeW.SubInPlace(tl.W)
				gb := beforeB.SubInPlace(tl.B)
				if accW[i] == nil {
					accW[i] = tensor.New(gw.Dims()...)
					accB[i] = tensor.New(gb.Dims()...)
				}
				accW[i].AddInPlace(gw)
				accB[i].AddInPlace(gb)
			}
		}
	}
	for i, l := range sw.Layers {
		switch tl := l.(type) {
		case *train.Conv:
			tl.W.AXPYInPlace(-lr/float64(b), accW[i])
		case *train.FC:
			tl.W.AXPYInPlace(-lr/float64(b), accW[i])
			tl.B.AXPYInPlace(-lr/float64(b), accB[i])
		}
	}

	for i := range hw.Layers {
		switch hl := hw.Layers[i].(type) {
		case *train.Conv:
			if !hl.W.Equal(sw.Layers[i].(*train.Conv).W, 1e-8) {
				t.Fatalf("conv %d weights differ from mean-gradient reference", i)
			}
		case *train.FC:
			sl := sw.Layers[i].(*train.FC)
			if !hl.W.Equal(sl.W, 1e-8) || !hl.B.Equal(sl.B, 1e-8) {
				t.Fatalf("fc %d parameters differ from mean-gradient reference", i)
			}
		}
	}
}

// TestBatchInSituTrainingLearns trains with batch-parallel steps and
// checks convergence.
func TestBatchInSituTrainingLearns(t *testing.T) {
	cfg := data.DefaultConfig()
	cfg.H, cfg.W = 12, 12
	cfg.Classes = 4
	cfg.PerClass = 30
	ds := data.Generate(cfg)
	trainSet, testSet := ds.Split(0.25)

	net := train.SmallCNN(rand.New(rand.NewSource(47)), 1, 12, 12, 4)
	m := New(Options{})
	const batchSize = 8
	for epoch := 0; epoch < 10; epoch++ {
		for at := 0; at+batchSize <= trainSet.Len(); at += batchSize {
			xs := make([]*tensor.Tensor, batchSize)
			labels := make([]int, batchSize)
			for j := 0; j < batchSize; j++ {
				xs[j] = trainSet.Samples[at+j].Image
				labels[j] = trainSet.Samples[at+j].Label
			}
			m.TrainStepBatch(net, xs, labels, 0.1)
		}
	}
	if acc := train.Accuracy(net, testSet); acc < 75 {
		t.Fatalf("batch in-situ training accuracy = %.1f%%, want >= 75%%", acc)
	}
}
