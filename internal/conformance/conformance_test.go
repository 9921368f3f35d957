package conformance

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"

	_ "github.com/inca-arch/inca/internal/baseline"
	_ "github.com/inca-arch/inca/internal/core"
	_ "github.com/inca-arch/inca/internal/gpu"
	_ "github.com/inca-arch/inca/internal/outstat"
)

// TestRegisteredDataflows runs the shared invariant table against every
// backend in the registry — the check that keeps IS/WS/OS/GPU from
// drifting apart.
func TestRegisteredDataflows(t *testing.T) {
	ids := dataflow.IDs()
	if len(ids) < 4 {
		t.Fatalf("registry has %v, want at least is/ws/os/gpu", ids)
	}
	for _, d := range dataflow.All() {
		if strings.HasPrefix(d.Caps.ID, "stub-") {
			continue // test-local registrations from sibling tests
		}
		d := d
		t.Run(d.Caps.ID, func(t *testing.T) {
			t.Parallel()
			Run(t, d)
		})
	}
}

// panicMachine is a legacy machine that always panics, standing in for
// the real backends' behavior on unsupported layer geometry.
type panicMachine struct{}

func (panicMachine) Simulate(net *nn.Network, phase sim.Phase) *sim.Report {
	panic("unsupported layer geometry")
}

// TestPanicRecovery pins the ErrSimulatorPanic pipeline all dataflows
// share through sim.Wrap: a panicking machine surfaces as a per-call
// error naming the dataflow, never as an unwound goroutine.
func TestPanicRecovery(t *testing.T) {
	s := sim.Wrap(panicMachine{}, "stub")
	_, err := s.Simulate(context.Background(), nn.LeNet5(), sim.Inference)
	if !errors.Is(err, sim.ErrSimulatorPanic) {
		t.Fatalf("got %v, want ErrSimulatorPanic", err)
	}
	if !strings.Contains(err.Error(), "stub") {
		t.Errorf("panic error %q does not name the dataflow", err)
	}
}

// stubBackend is a throwaway backend to pin the registry's duplicate
// and lookup behavior without touching the real IDs.
func stubBackend(id string) *dataflow.Backend {
	return &dataflow.Backend{
		Caps:    dataflow.Capabilities{ID: id, Name: "Stub " + id, Phases: []sim.Phase{sim.Inference}},
		Machine: func(arch.Config) sim.Machine { return panicMachine{} },
	}
}

// registerStub puts the stub backend in the process-wide registry once,
// so the package can run with -count above 1.
var registerStub sync.Once

func TestRegistryLookup(t *testing.T) {
	registerStub.Do(func() { dataflow.Register(stubBackend("stub-conf")) })
	if _, err := dataflow.Get("STUB-CONF"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := dataflow.Get("stub conf nonexistent"); !errors.Is(err, dataflow.ErrUnknownDataflow) {
		t.Errorf("unknown ID: got %v, want ErrUnknownDataflow", err)
	}
	if id, ok := dataflow.Normalize("no-such-dataflow"); ok {
		t.Errorf("unexpected alias hit %q", id)
	}
	if id, ok := dataflow.Normalize("INCA"); !ok || id != "is" {
		t.Errorf("Normalize(INCA) = %q, %v; want is, true", id, ok)
	}
	if id, ok := dataflow.Normalize("WS-Baseline"); !ok || id != "ws" {
		t.Errorf("Normalize(WS-Baseline) = %q, %v; want ws, true", id, ok)
	}
	if id, ok := dataflow.Normalize("TitanRTX"); !ok || id != "gpu" {
		t.Errorf("Normalize(TitanRTX) = %q, %v; want gpu, true", id, ok)
	}

	defer func() {
		if recover() == nil {
			t.Errorf("duplicate Register did not panic")
		}
	}()
	dataflow.Register(stubBackend("stub-conf"))
}

// TestSimulateAllocs pins what one analytical simulation allocates: the
// report and its layer rows, sized once from the network. Every cost is
// accumulated in place, so a row slice grown by append, or a result
// that escapes to the heap, fails here before it reaches a benchmark.
func TestSimulateAllocs(t *testing.T) {
	net := nn.ResNet18()
	for _, id := range []string{"is", "ws", "os", "gpu"} {
		d, err := dataflow.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		m := d.Machine(d.Default)
		for _, ph := range d.Caps.Phases {
			allocs := testing.AllocsPerRun(20, func() { m.Simulate(net, ph) })
			if allocs > 2 {
				t.Errorf("%s/%s: Simulate(%s) makes %v allocations, want at most 2 (the report and its layer rows)",
					id, ph, net.Name, allocs)
			}
		}
	}
}

// simulateSink keeps the compiler from discarding a benchmarked report.
var simulateSink *sim.Report

// BenchmarkSimulate is the layer probe for the simulator cell: one
// analytical Simulate call per dataflow on the two deepest zoo networks,
// with no sweep engine, cache or tracing around it.
func BenchmarkSimulate(b *testing.B) {
	for _, id := range []string{"is", "ws", "os"} {
		d, err := dataflow.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		m := d.Machine(d.Default)
		for _, net := range []*nn.Network{nn.ResNet50(), nn.MobileNetV2()} {
			b.Run(id+"/"+net.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					simulateSink = m.Simulate(net, sim.Inference)
				}
			})
		}
	}
}
