package insitu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
)

// The SHA-256 digests TestInSituDigest expects. They pin every bit the
// machine produces (logits, losses, updated parameters, device event
// counts and peak cell wear): a change that reorders one floating-point
// addition, moves one noise draw or drops one count moves them.
const (
	perImageDigest = "4504b921e4b954dd16bf38e56b0f0237983914d59eaf0bf48105360876aef7f3"
	batchDigest    = "c226a990120412c4f137dcc3e8b43016e0d34336c1df4664abb5432d0d652165"
)

// stridedNet is a stride-2 padded convolution feeding a classifier, the
// shape that exercises the dilated error map in the backward pass.
func stridedNet(seed int64) *train.Network {
	rng := rand.New(rand.NewSource(seed))
	return &train.Network{Layers: []train.Layer{
		train.NewConv(rng, 3, 1, 3, tensor.ConvSpec{Stride: 2, Pad: 1}),
		&train.ReLU{},
		train.NewFC(rng, 3, 3*6*6),
	}}
}

// digestOptions are the device settings both digests cover; each call
// builds a fresh noise model so every run draws the same noise.
type digestOptions struct {
	name string
	opt  func() Options
}

var digestSets = []digestOptions{
	{"ideal", func() Options { return Options{} }},
	{"8/8", func() Options { return Options{WeightBits: 8, ActivationBits: 8} }},
	{"ADC 4", func() Options { return Options{ADCBits: 4} }},
	{"noise", func() Options { return Options{ActNoise: rram.NewNoiseModel(0.05, 21)} }},
	{"8/8 + ADC 4", func() Options { return Options{WeightBits: 8, ActivationBits: 8, ADCBits: 4} }},
	{"wear", func() Options { return Options{TrackWear: true, Endurance: 1 << 40} }},
}

var digestNets = []struct {
	name string
	net  func() *train.Network
}{
	{"SmallCNN", func() *train.Network { return smallNet(22) }},
	{"strided", func() *train.Network { return stridedNet(23) }},
	{"non-square kernel", func() *train.Network { return nonSquareNet(24) }},
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashMachine hashes a network's parameters and the machine's counters.
func hashMachine(h hash.Hash, m *Machine, net *train.Network) {
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *train.Conv:
			hashFloats(h, t.W.Data()...)
		case *train.FC:
			hashFloats(h, t.W.Data()...)
			hashFloats(h, t.B.Data()...)
		}
	}
	fmt.Fprintf(h, "%+v|%d\n", m.Stats(), m.MaxCellWrites())
}

// TestInSituDigest pins the per-image entry points (Forward, then
// TrainStep, on each of three images) and the batch entry points
// (ForwardBatch and TrainStepBatch at B=3) over every net × option set.
// The batch digest leaves out quantized activations with an ADC, whose
// converter calibration is the one thing the two paths may differ on.
func TestInSituDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 1, 12, 12),
		tensor.Randn(rng, 1, 1, 12, 12),
		tensor.Randn(rng, 1, 1, 12, 12),
	}
	labels := []int{0, 1, 2}
	const lr = 0.05

	single, batch := sha256.New(), sha256.New()
	for _, set := range digestSets {
		for _, dn := range digestNets {
			fmt.Fprintf(single, "%s %s\n", set.name, dn.name)
			m, net := New(set.opt()), dn.net()
			for p, x := range xs {
				hashFloats(single, m.Forward(net, x).Data()...)
				hashFloats(single, m.TrainStep(net, x, labels[p], lr))
			}
			hashMachine(single, m, net)

			if set.name == "8/8 + ADC 4" {
				continue
			}
			fmt.Fprintf(batch, "%s %s\n", set.name, dn.name)
			m, net = New(set.opt()), dn.net()
			for _, out := range m.ForwardBatch(net, xs) {
				hashFloats(batch, out.Data()...)
			}
			hashFloats(batch, m.TrainStepBatch(net, xs, labels, lr))
			hashMachine(batch, m, net)
		}
	}
	if got := hex.EncodeToString(single.Sum(nil)); got != perImageDigest {
		t.Errorf("per-image digest = %s, want %s", got, perImageDigest)
	}
	if got := hex.EncodeToString(batch.Sum(nil)); got != batchDigest {
		t.Errorf("batch digest = %s, want %s", got, batchDigest)
	}
}
