package dataflow

import (
	"context"
	"errors"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

func TestMappingLabel(t *testing.T) {
	cases := []struct {
		m    Mapping
		want string
	}{
		{Mapping{}, "base"},
		{Mapping{Rows: 128, Cols: 128}, "128x128"},
		{Mapping{Rows: 16, Cols: 16, Planes: 64}, "16x16x64"},
		{Mapping{Rows: 32, Cols: 512, LoopOrder: "input-reuse"}, "32x512/input-reuse"},
	}
	for _, c := range cases {
		if got := c.m.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestFromConfig(t *testing.T) {
	if got := FromConfig(arch.Config{Dataflow: arch.InputStationary}); got != "is" {
		t.Errorf("IS -> %q", got)
	}
	if got := FromConfig(arch.Config{Dataflow: arch.WeightStationary}); got != "ws" {
		t.Errorf("WS -> %q", got)
	}
	if got := FromConfig(arch.Config{Dataflow: arch.OutputStationary}); got != "os" {
		t.Errorf("OS -> %q", got)
	}
}

type okMachine struct{}

func (okMachine) Simulate(net *nn.Network, phase sim.Phase) *sim.Report {
	return &sim.Report{Arch: "ok", Network: net.Name, Phase: phase, Batch: 1}
}

// TestGuardPhases checks the phase guard through a backend whose Caps
// declare inference only, and that a backend declaring both phases is
// built without one.
func TestGuardPhases(t *testing.T) {
	b := &Backend{
		Caps:    Capabilities{ID: "test-df", Phases: []sim.Phase{sim.Inference}},
		Machine: func(arch.Config) sim.Machine { return okMachine{} },
	}
	g, err := b.New(arch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	net := nn.LeNet5()
	if _, err := g.Simulate(context.Background(), net, sim.Inference); err != nil {
		t.Errorf("allowed phase rejected: %v", err)
	}
	_, err = g.Simulate(context.Background(), net, sim.Training)
	if !errors.Is(err, ErrUnsupportedPhase) {
		t.Errorf("blocked phase: got %v, want ErrUnsupportedPhase", err)
	}
	// Unknown phases pass through for the inner simulator's own
	// validation, keeping error shapes uniform across dataflows.
	if _, err := g.Simulate(context.Background(), net, sim.Phase(42)); err == nil || errors.Is(err, ErrUnsupportedPhase) {
		t.Errorf("unknown phase: got %v, want the simulator's own error", err)
	}

	b.Caps.Phases = []sim.Phase{sim.Inference, sim.Training}
	full, err := b.New(arch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, guarded := full.(phaseGuard); guarded {
		t.Errorf("full-phase backend built with a phase guard")
	}
}
