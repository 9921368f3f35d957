package inca

import (
	"context"
	"errors"
	"testing"
)

func TestNewMachineDefaultsAndOptions(t *testing.T) {
	ctx := context.Background()
	net, err := Model("LeNet5")
	if err != nil {
		t.Fatal(err)
	}
	// Zero Config uses the dataflow's default design point.
	m, err := NewMachine("os", Config{}, WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Simulate(ctx, net, Inference)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batch != 8 {
		t.Errorf("WithBatch(8) ignored: batch %d", rep.Batch)
	}
	// OS is inference-only; training surfaces the typed sentinel.
	if _, err := m.Simulate(ctx, net, Training); !errors.Is(err, ErrUnsupportedPhase) {
		t.Errorf("OS training: got %v, want ErrUnsupportedPhase", err)
	}
	// Legacy architecture names normalize to registry IDs.
	if _, err := NewMachine("INCA", Config{}); err != nil {
		t.Errorf("legacy name INCA rejected: %v", err)
	}
	if _, err := NewMachine("nonesuch", Config{}); !errors.Is(err, ErrUnknownDataflow) {
		t.Errorf("unknown dataflow: got %v, want ErrUnknownDataflow", err)
	}
	// WithMapping lowers a tuner point onto the base configuration.
	tuned, err := NewMachine("is", Config{}, WithMapping(Mapping{Rows: 32, Cols: 32, Planes: 64}))
	if err != nil {
		t.Fatal(err)
	}
	trep, err := tuned.Simulate(ctx, net, Inference)
	if err != nil {
		t.Fatal(err)
	}
	if trep.Arch == rep.Arch {
		t.Errorf("mapped machine reports the same arch name %q", trep.Arch)
	}
}

func TestDataflowsListing(t *testing.T) {
	infos := Dataflows()
	if len(infos) < 4 {
		t.Fatalf("got %d dataflows, want at least is/ws/os/gpu", len(infos))
	}
	seen := map[string]bool{}
	for _, d := range infos {
		seen[d.ID] = true
		if d.Name == "" || len(d.Phases) == 0 {
			t.Errorf("%s: incomplete capabilities %+v", d.ID, d)
		}
	}
	for _, want := range []string{"is", "ws", "os", "gpu"} {
		if !seen[want] {
			t.Errorf("registry missing %q (have %v)", want, infos)
		}
	}
	// The listing is the caller's copy: editing it leaves the registry's
	// shared capabilities untouched.
	phase := infos[0].Phases[0]
	infos[0].Phases[0] = Phase(99)
	if got := Dataflows()[0].Phases[0]; got != phase {
		t.Errorf("editing Dataflows() changed the registry: phase %v, want %v", got, phase)
	}
}

func TestTuneSearchFacade(t *testing.T) {
	net, err := Model("ResNet18") // a paper model, end-to-end through the facade
	if err != nil {
		t.Fatal(err)
	}
	fronts, err := TuneSearch(context.Background(), net, TuneOptions{
		Dataflows: []string{"is", "os"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fronts) != 1 || len(fronts[0].Pareto) == 0 {
		t.Fatalf("no Pareto frontier from facade: %+v", fronts)
	}
	for _, c := range fronts[0].Pareto {
		if c.EnergyJ <= 0 || c.LatencyS <= 0 || c.AreaMM2 <= 0 {
			t.Errorf("%s: non-positive objective", c.Label)
		}
	}
}
