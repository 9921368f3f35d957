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

func smallNet(seed int64) *train.Network {
	return train.SmallCNN(rand.New(rand.NewSource(seed)), 1, 12, 12, 4)
}

// TestForwardMatchesSoftware checks the in-situ forward pass equals the
// software engine in the ideal (no quantization, no noise) case.
func TestForwardMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := smallNet(2)
	m := New(Options{})
	for i := 0; i < 5; i++ {
		x := tensor.Randn(rng, 1, 1, 12, 12)
		hw := m.Forward(net, x)
		sw := net.Forward(x)
		if !hw.Equal(sw, 1e-9) {
			t.Fatalf("sample %d: in-situ forward differs from software", i)
		}
	}
	if m.Stats().CellReads == 0 || m.Stats().CellWrites == 0 {
		t.Fatal("array event counts not recorded")
	}
}

// nonSquareNet ends in a convolution with a 3×2 kernel and padding, the
// shape that tells the rows of the error propagation from its columns.
func nonSquareNet(seed int64) *train.Network {
	rng := rand.New(rand.NewSource(seed))
	return &train.Network{Layers: []train.Layer{
		train.NewConv(rng, 2, 1, 3, tensor.ConvSpec{Stride: 1}),
		&train.ReLU{},
		&train.Conv{W: tensor.Randn(rng, 0.3, 2, 2, 3, 2), Spec: tensor.ConvSpec{Stride: 1, Pad: 1}},
		&train.ReLU{},
		train.NewFC(rng, 4, 2*10*11),
	}}
}

// TestTrainStepMatchesSoftware verifies one in-situ SGD step, through
// TrainStep and through a batch of one, produces the same weights as the
// software engine's step.
func TestTrainStepMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 1, 12, 12)
	const label = 2
	const lr = 0.05

	for _, tc := range []struct {
		name string
		net  *train.Network
	}{{"SmallCNN", smallNet(4)}, {"non-square kernel", nonSquareNet(5)}} {
		swNet := tc.net.Clone()
		out := swNet.Forward(x)
		swLoss, delta := train.SoftmaxCrossEntropy(out, label)
		swNet.Backward(delta)
		swNet.Step(lr, nil)

		for _, step := range []struct {
			name string
			run  func(m *Machine, net *train.Network) float64
		}{
			{"TrainStep", func(m *Machine, net *train.Network) float64 { return m.TrainStep(net, x, label, lr) }},
			{"TrainStepBatch", func(m *Machine, net *train.Network) float64 {
				return m.TrainStepBatch(net, []*tensor.Tensor{x}, []int{label}, lr)
			}},
		} {
			hwNet := tc.net.Clone()
			hwLoss := step.run(New(Options{}), hwNet)
			if math.Abs(hwLoss-swLoss) > 1e-9 {
				t.Errorf("%s, %s: loss differs: hw %v, sw %v", tc.name, step.name, hwLoss, swLoss)
			}
			for i := range hwNet.Layers {
				switch hl := hwNet.Layers[i].(type) {
				case *train.Conv:
					if !hl.W.Equal(swNet.Layers[i].(*train.Conv).W, 1e-8) {
						t.Errorf("%s, %s: conv layer %d weights diverged after one step", tc.name, step.name, i)
					}
				case *train.FC:
					sf := swNet.Layers[i].(*train.FC)
					if !hl.W.Equal(sf.W, 1e-8) || !hl.B.Equal(sf.B, 1e-8) {
						t.Errorf("%s, %s: fc layer %d parameters diverged after one step", tc.name, step.name, i)
					}
				}
			}
		}
	}
}

// demonstration.
func TestInSituTrainingLearns(t *testing.T) {
	cfg := data.DefaultConfig()
	cfg.H, cfg.W = 12, 12
	cfg.Classes = 4
	cfg.PerClass = 30
	ds := data.Generate(cfg)
	trainSet, testSet := ds.Split(0.25)

	net := train.SmallCNN(rand.New(rand.NewSource(5)), 1, 12, 12, 4)
	m := New(Options{})
	for epoch := 0; epoch < 6; epoch++ {
		for _, s := range trainSet.Samples {
			m.TrainStep(net, s.Image, s.Label, 0.03)
		}
	}
	acc := train.Accuracy(net, testSet)
	if acc < 80 {
		t.Fatalf("in-situ training accuracy = %.1f%%, want >= 80%%", acc)
	}
}

// TestQuantizedForwardClose verifies 8-bit operand quantization plus a
// 4-bit ADC keeps the in-situ output close to the ideal result.
func TestQuantizedForwardClose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := smallNet(7)
	x := tensor.Randn(rng, 1, 1, 12, 12)
	ideal := New(Options{}).Forward(net, x)
	quant := New(Options{WeightBits: 8, ActivationBits: 8, ADCBits: 4}).Forward(net, x)

	// Outputs should agree on the argmax most of the time; check relative
	// error of the logits is moderate.
	num, den := 0.0, 0.0
	for i := range ideal.Data() {
		d := ideal.Data()[i] - quant.Data()[i]
		num += d * d
		den += ideal.Data()[i] * ideal.Data()[i]
	}
	rel := math.Sqrt(num / (den + 1e-12))
	if rel > 0.5 {
		t.Fatalf("quantized output relative error %.3f too large", rel)
	}
}

// TestActNoisePerturbs checks the IS noise hook reaches the arrays.
func TestActNoisePerturbs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := smallNet(9)
	x := tensor.Randn(rng, 1, 1, 12, 12)
	clean := New(Options{}).Forward(net, x)
	noisy := New(Options{ActNoise: rram.NewNoiseModel(0.05, 10)}).Forward(net, x)
	if clean.Equal(noisy, 1e-9) {
		t.Fatal("activation noise had no effect on in-situ forward")
	}
}

// TestWearTracking checks endurance accounting counts FC plane writes.
func TestWearTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := smallNet(12)
	m := New(Options{TrackWear: true, Endurance: 1 << 40})
	for i := 0; i < 3; i++ {
		m.Forward(net, tensor.Randn(rng, 1, 1, 12, 12))
	}
	if m.MaxCellWrites() == 0 {
		t.Fatal("wear tracking recorded no writes")
	}
}

// TestStridedConvGradientsMatch exercises the dilation path in the
// in-situ backward pass.
func TestStridedConvGradientsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := &train.Network{}
	net.Layers = append(net.Layers,
		train.NewConv(rng, 3, 1, 3, tensor.ConvSpec{Stride: 2, Pad: 1}),
		&train.ReLU{},
		train.NewFC(rng, 3, 3*6*6),
	)
	sw := net.Clone()
	x := tensor.Randn(rng, 1, 1, 12, 12)

	m := New(Options{})
	m.TrainStep(net, x, 1, 0.05)

	out := sw.Forward(x)
	_, delta := train.SoftmaxCrossEntropy(out, 1)
	sw.Backward(delta)
	sw.Step(0.05, nil)

	hwConv := net.Layers[0].(*train.Conv)
	swConv := sw.Layers[0].(*train.Conv)
	if !hwConv.W.Equal(swConv.W, 1e-8) {
		t.Fatal("strided conv weights diverged after one in-situ step")
	}
}
