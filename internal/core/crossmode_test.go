package core

import (
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/tensor"
)

// TestAnalyticalMatchesFunctionalCounts ties the two execution modes
// together: the analytical simulator's cell-read count for a conv layer
// must equal the functional executor's count times the bit-serial and
// batch factors it abstracts away (activation planes × weight-bit cycles
// × batch).
func TestAnalyticalMatchesFunctionalCounts(t *testing.T) {
	cfg := arch.INCA()
	cfg.BatchSize = 2
	m := New(cfg)

	l := nn.Layer{
		Name: "conv", Kind: nn.Conv,
		InC: 3, InH: 10, InW: 10,
		OutC: 4, OutH: 8, OutW: 8,
		KH: 3, KW: 3, Stride: 1, Pad: 0,
	}
	mp := m.Map(&l)
	var analytical metrics.Result
	m.pass(&analytical, &mp)

	// Functional: real numbers, one read per (window, out-channel,
	// channel) per image.
	rng := rand.New(rand.NewSource(1))
	batch := []*tensor.Tensor{
		tensor.Randn(rng, 1, 3, 10, 10),
		tensor.Randn(rng, 1, 3, 10, 10),
	}
	w := tensor.Randn(rng, 1, 4, 3, 3, 3)
	_, funcStats := FunctionalConv2D(batch, w, FuncOptions{Stride: 1})

	factor := int64(cfg.ActPlanes()) * int64(cfg.WeightBits)
	if analytical.Counts.RRAMReads != funcStats.CellReads*factor {
		t.Fatalf("analytical reads %d != functional %d × bit factor %d",
			analytical.Counts.RRAMReads, funcStats.CellReads, factor)
	}
}

// TestSimulateDegenerateNetworks checks the simulator handles edge
// topologies without panicking or producing nonsense.
func TestSimulateDegenerateNetworks(t *testing.T) {
	m := machine()

	// FC-only network.
	fcOnly := &nn.Network{Name: "fc-only", InputC: 64, InputH: 1, InputW: 1, Classes: 10,
		Layers: []nn.Layer{{
			Name: "fc1", Kind: nn.FC, InC: 64, InH: 1, InW: 1, OutC: 10, OutH: 1, OutW: 1,
		}}}
	if err := fcOnly.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := m.Simulate(fcOnly, sim.Training)
	if rep.Total.Energy.Total() <= 0 || rep.Total.Latency <= 0 {
		t.Fatal("fc-only network should still cost something")
	}

	// No compute layers at all: only the input load remains.
	empty := &nn.Network{Name: "empty", InputC: 1, InputH: 4, InputW: 4, Classes: 1}
	repE := m.Simulate(empty, sim.Inference)
	if len(repE.Layers) != 0 {
		t.Fatal("empty network should produce no layer results")
	}
	if repE.Total.Energy.Total() <= 0 {
		t.Fatal("input load should still be charged")
	}

	// 1×1 input image.
	tiny := &nn.Network{Name: "tiny", InputC: 4, InputH: 1, InputW: 1, Classes: 2,
		Layers: []nn.Layer{{
			Name: "pw", Kind: nn.Conv, InC: 4, InH: 1, InW: 1, OutC: 2, OutH: 1, OutW: 1,
			KH: 1, KW: 1, Stride: 1,
		}}}
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	repT := m.Simulate(tiny, sim.Inference)
	if repT.Total.Latency <= 0 {
		t.Fatal("tiny network latency should be positive")
	}
}

// TestPlacementOfPaperNetworks checks the §IV.C sequential placement
// produces sane round counts: small networks fit in one round, the big
// activations of VGG16 force time multiplexing.
func TestPlacementOfPaperNetworks(t *testing.T) {
	m := machine()
	lenet, _ := nn.ByName("LeNet5")
	if p := m.Placement(lenet); p.Rounds != 1 {
		t.Fatalf("LeNet5 should fit in one round, got %d", p.Rounds)
	}
	vgg := nn.VGG16()
	p := m.Placement(vgg)
	if p.Rounds < 2 {
		t.Fatalf("VGG16's activation demand should exceed one chip pass, got %d rounds", p.Rounds)
	}
	if p.Fragmentation() < 0 || p.Fragmentation() > 1 {
		t.Fatalf("fragmentation out of range: %v", p.Fragmentation())
	}
}
