package train

import (
	"math"
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
)

// tinyConfig keeps the unit-test experiments fast (< 2 s).
func tinyConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.Data.PerClass = 24
	cfg.PretrainEpochs = 5
	cfg.NoiseEpochs = 4
	return cfg
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 10}, 3)
	loss, delta := SoftmaxCrossEntropy(logits, 2)
	if loss > 0.01 {
		t.Fatalf("confident correct prediction should have near-zero loss: %v", loss)
	}
	lossWrong, _ := SoftmaxCrossEntropy(logits, 0)
	if lossWrong < 5 {
		t.Fatalf("confident wrong prediction should have large loss: %v", lossWrong)
	}
	// Gradient sums to zero (softmax minus one-hot).
	if math.Abs(delta.Sum()) > 1e-9 {
		t.Fatalf("delta sum = %v, want 0", delta.Sum())
	}
}

func TestL2Loss(t *testing.T) {
	pred := tensor.FromSlice([]float64{0.2, 0.8}, 2)
	loss, delta := L2Loss(pred, 1)
	want := 0.5 * (0.2*0.2 + 0.2*0.2)
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("L2 loss = %v, want %v", loss, want)
	}
	if math.Abs(delta.At(0)-0.2) > 1e-12 || math.Abs(delta.At(1)-(-0.2)) > 1e-12 {
		t.Fatalf("L2 delta = %v", delta)
	}
}

// TestNetworkGradientNumerical end-to-end checks the engine's backward
// pass against central differences through conv+relu+pool+fc.
func TestNetworkGradientNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := SmallCNN(rng, 1, 10, 10, 3)
	x := tensor.Randn(rng, 1, 1, 10, 10)
	label := 1

	lossOf := func() float64 {
		out := net.Forward(x)
		l, _ := SoftmaxCrossEntropy(out, label)
		return l
	}
	out := net.Forward(x)
	_, delta := SoftmaxCrossEntropy(out, label)
	net.Backward(delta)

	conv := net.Layers[0].(*Conv)
	analytic := conv.dW.Clone()
	const eps = 1e-5
	for _, idx := range []int{0, 7, 20, 50} {
		orig := conv.W.Data()[idx]
		conv.W.Data()[idx] = orig + eps
		up := lossOf()
		conv.W.Data()[idx] = orig - eps
		down := lossOf()
		conv.W.Data()[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic.Data()[idx]) > 1e-4 {
			t.Fatalf("conv dW[%d]: analytic %v, numeric %v", idx, analytic.Data()[idx], numeric)
		}
	}

	fc := net.Layers[len(net.Layers)-1].(*FC)
	analyticFC := fc.dW.Clone()
	for _, idx := range []int{0, 5, 30} {
		orig := fc.W.Data()[idx]
		fc.W.Data()[idx] = orig + eps
		up := lossOf()
		fc.W.Data()[idx] = orig - eps
		down := lossOf()
		fc.W.Data()[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analyticFC.Data()[idx]) > 1e-4 {
			t.Fatalf("fc dW[%d]: analytic %v, numeric %v", idx, analyticFC.Data()[idx], numeric)
		}
	}
}

// TestTrainingLearns is the end-to-end sanity check: the small CNN must
// reach high accuracy on the synthetic dataset.
func TestTrainingLearns(t *testing.T) {
	cfg := tinyConfig()
	ds := data.Generate(cfg.Data)
	trainSet, testSet := ds.Split(0.25)
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := SmallCNN(rng, 1, cfg.Data.H, cfg.Data.W, cfg.Data.Classes)

	before := Accuracy(net, testSet)
	tr := &Trainer{Net: net, LR: cfg.LR}
	loss := tr.Train(trainSet, cfg.PretrainEpochs)
	after := Accuracy(net, testSet)

	if after < 75 {
		t.Fatalf("accuracy after training = %.1f%%, want >= 75%%", after)
	}
	if after <= before+20 {
		t.Fatalf("training barely improved accuracy: %v -> %v", before, after)
	}
	if loss > 1.5 {
		t.Fatalf("final loss = %v, want < 1.5", loss)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := SmallCNN(rng, 1, 10, 10, 3)
	cl := net.Clone()
	net.Layers[0].(*Conv).W.Fill(0)
	if cl.Layers[0].(*Conv).W.MaxAbs() == 0 {
		t.Fatal("clone shares weight storage")
	}
	if len(cl.Layers) != len(net.Layers) {
		t.Fatal("clone layer count differs")
	}
}

func TestQuantizeWeightsCoarsens(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := SmallCNN(rng, 1, 10, 10, 3)
	orig := net.Layers[0].(*Conv).W.Clone()
	net.QuantizeWeights(2)
	q := net.Layers[0].(*Conv).W
	if q.Equal(orig, 1e-12) {
		t.Fatal("2-bit quantization should change weights")
	}
	// 2-bit symmetric quantization leaves at most 3 distinct magnitudes.
	seen := map[float64]bool{}
	for _, v := range q.Data() {
		seen[math.Abs(v)] = true
	}
	if len(seen) > 3 {
		t.Fatalf("2-bit weights have %d distinct magnitudes", len(seen))
	}
}

func TestPerturbWeightsNilIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := SmallCNN(rng, 1, 10, 10, 3)
	before := net.Layers[0].(*Conv).W.Clone()
	net.PerturbWeights(nil)
	if !net.Layers[0].(*Conv).W.Equal(before, 0) {
		t.Fatal("nil noise should not change weights")
	}
	net.PerturbWeights(rram.NewNoiseModel(0.1, 1))
	if net.Layers[0].(*Conv).W.Equal(before, 1e-12) {
		t.Fatal("noise model should change weights")
	}
}

func TestSanitizeClampsGradients(t *testing.T) {
	d := tensor.FromSlice([]float64{math.NaN(), 100, -100, 1}, 4)
	sanitize(d)
	if d.At(0) != 0 || d.At(1) != 10 || d.At(2) != -10 || d.At(3) != 1 {
		t.Fatalf("sanitize = %v", d)
	}
}

func TestNoiseTargetString(t *testing.T) {
	if NoiseWeights.String() != "weights" || NoiseActivations.String() != "activations" || NoiseNone.String() != "none" {
		t.Fatal("NoiseTarget names mismatch")
	}
}

// TestTableVIShape pins the headline robustness asymmetry at a reduced
// scale: at the largest σ, activation noise (the IS case) retains much
// higher accuracy than weight noise (the WS case).
func TestTableVIShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.NoiseEpochs = 8 // enough device writes for the walk to show
	rows := NoiseAccuracyTable(cfg, []float64{0.01, 0.08})
	low, high := rows[0], rows[1]
	if high.ActivationAcc < high.WeightNoise+10 {
		t.Fatalf("at sigma=0.05 activations (%.1f%%) should beat weights (%.1f%%) by >= 10 points",
			high.ActivationAcc, high.WeightNoise)
	}
	if high.WeightNoise > low.WeightNoise {
		t.Fatalf("weight-noise accuracy should not improve with more noise: %.1f -> %.1f",
			low.WeightNoise, high.WeightNoise)
	}
	// Activation robustness: stays within 20 points of clean accuracy.
	if high.ActivationAcc < high.BaselineNoNoise-20 {
		t.Fatalf("activation noise dropped accuracy too far: %.1f vs clean %.1f",
			high.ActivationAcc, high.BaselineNoNoise)
	}
}

// TestTableIShape pins the quantization asymmetry at a reduced scale:
// very low-bit weights hurt at least as much as very low-bit activations,
// and 7-bit quantization of either operand is nearly free.
func TestTableIShape(t *testing.T) {
	cfg := tinyConfig()
	rows := BitDepthTable(cfg, []int{7, 2})
	for _, r := range rows {
		switch r.Bits {
		case 7:
			if r.ActQuantDrop < -5 || r.WeightQuantDrop < -5 {
				t.Fatalf("7-bit quantization should be nearly free: act %.1f, wt %.1f",
					r.ActQuantDrop, r.WeightQuantDrop)
			}
		case 2:
			if r.WeightQuantDrop > -10 {
				t.Fatalf("2-bit weights should hurt badly: %.1f", r.WeightQuantDrop)
			}
			if r.WeightQuantDrop > r.ActQuantDrop+10 {
				t.Fatalf("weight quantization (%.1f) should hurt at least as much as activation (%.1f)",
					r.WeightQuantDrop, r.ActQuantDrop)
			}
		}
	}
}

// Conv and ReLU layers return scratch they overwrite on their next call;
// Network.Forward must still hand the caller a tensor of its own.
func TestForwardResultSurvivesNextForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tail := range []Layer{&ReLU{}, NewConv(rng, 3, 2, 3, tensor.ConvSpec{Stride: 1})} {
		net := &Network{Layers: []Layer{NewConv(rng, 2, 1, 3, tensor.ConvSpec{Stride: 1}), tail}}
		first := net.Forward(tensor.Randn(rng, 1, 1, 8, 8))
		kept := first.Clone()
		net.Forward(tensor.Randn(rng, 1, 1, 8, 8))
		if !tensorsBitEqual(first, kept) {
			t.Fatalf("network ending in %T: a later Forward overwrote an earlier result", tail)
		}
	}
}
