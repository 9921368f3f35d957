package sim_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/sim"
)

// stepClock is a deterministic clock advancing 1ms per reading, so
// traced spans get distinct, pinned timestamps without wall time.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

// TestTracedLayersMatchCSV is the reconciliation golden: a traced run's
// sim/layer leaf spans must agree row-for-row with the report's CSV
// per-layer table — same layers, same order, and byte-identical
// formatted latency/energy/utilization values.
func TestTracedLayersMatchCSV(t *testing.T) {
	tr := obs.NewTracer(obs.WithClock((&stepClock{now: time.Unix(0, 0)}).Now), obs.WithRing(256), obs.WithIDSeed(1))
	s := sim.Wrap(core.New(arch.INCA()), "is")
	net := nn.LeNet5()

	ctx, root := tr.Start(context.Background(), "test")
	rep, err := s.Simulate(ctx, net, sim.Inference)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// rows: header, one per layer, TOTAL.
	layerRows := rows[1 : len(rows)-1]

	var leaves []obs.SpanData
	for _, sd := range tr.Ring().Trace(root.TraceID()) {
		if sd.Name == sim.SpanLayer {
			leaves = append(leaves, sd)
		}
	}
	if len(leaves) == 0 {
		t.Fatal("traced run emitted no sim/layer leaf spans")
	}
	if len(leaves) != len(layerRows) {
		t.Fatalf("%d leaf spans vs %d CSV layer rows", len(leaves), len(layerRows))
	}
	// Leaf spans complete in emission order, which is report layer order.
	for i, leaf := range leaves {
		row := layerRows[i]
		attrStr := func(key string) string {
			v, ok := leaf.Attr(key)
			if !ok {
				t.Fatalf("leaf %d missing attr %s", i, key)
			}
			return fmt.Sprint(v)
		}
		attrSci := func(key string) string {
			v, ok := leaf.Attr(key)
			if !ok {
				t.Fatalf("leaf %d missing attr %s", i, key)
			}
			return fmt.Sprintf("%.6e", v)
		}
		// CSV columns: layer, kind, energy_total_J, ..., latency_s (9), utilization (10).
		if got, want := attrStr(sim.AttrLayer), row[0]; got != want {
			t.Errorf("leaf %d layer = %q, CSV row has %q", i, got, want)
		}
		if got, want := attrStr(sim.AttrKind), row[1]; got != want {
			t.Errorf("leaf %d kind = %q, CSV row has %q", i, got, want)
		}
		if got, want := attrSci(sim.AttrEnergyJ), row[2]; got != want {
			t.Errorf("leaf %d energy = %s, CSV row has %s", i, got, want)
		}
		if got, want := attrSci(sim.AttrLatencyS), row[9]; got != want {
			t.Errorf("leaf %d latency = %s, CSV row has %s", i, got, want)
		}
		v, _ := leaf.Attr(sim.AttrUtilization)
		if got, want := fmt.Sprintf("%.4f", v), row[10]; got != want {
			t.Errorf("leaf %d utilization = %s, CSV row has %s", i, got, want)
		}
	}

	// The enclosing sim/simulate span carries the report totals.
	var simSpan *obs.SpanData
	for _, sd := range tr.Ring().Trace(root.TraceID()) {
		if sd.Name == sim.SpanSimulate {
			sd := sd
			simSpan = &sd
		}
	}
	if simSpan == nil {
		t.Fatal("no sim/simulate span")
	}
	if v, _ := simSpan.Attr(sim.AttrLatencyS); v != rep.Total.Latency {
		t.Errorf("sim span latency_s = %v, report total %v", v, rep.Total.Latency)
	}
	if v, _ := simSpan.Attr("arch"); v != rep.Arch {
		t.Errorf("sim span arch = %v, want %v", v, rep.Arch)
	}
	if v, _ := simSpan.Attr("layers"); v != int64(len(rep.Layers)) {
		t.Errorf("sim span layers = %v, want %d", v, len(rep.Layers))
	}
}

// TestUntracedSimulateEmitsNothing pins the off path: without a span in
// the context, Simulate must not allocate tracing state.
func TestUntracedSimulateEmitsNothing(t *testing.T) {
	s := sim.Wrap(core.New(arch.INCA()), "is")
	rep, err := s.Simulate(context.Background(), nn.LeNet5(), sim.Inference)
	if err != nil || rep == nil {
		t.Fatalf("untraced simulate failed: %v", err)
	}
}

// TestTracedPanicEndsSpanWithError pins that a panicking machine still
// closes its sim/simulate span, carrying the converted error.
func TestTracedPanicEndsSpanWithError(t *testing.T) {
	tr := obs.NewTracer(obs.WithClock((&stepClock{now: time.Unix(0, 0)}).Now), obs.WithRing(16), obs.WithIDSeed(1))
	s := sim.Wrap(panicMachine{}, "stub")
	ctx, root := tr.Start(context.Background(), "test")
	_, err := s.Simulate(ctx, nn.LeNet5(), sim.Inference)
	if err == nil {
		t.Fatal("want panic converted to error")
	}
	root.End()
	var found bool
	for _, sd := range tr.Ring().Trace(root.TraceID()) {
		if sd.Name == sim.SpanSimulate {
			found = true
			if _, ok := sd.Attr("error"); !ok {
				t.Error("sim span missing error attribute after panic")
			}
		}
	}
	if !found {
		t.Fatal("panicking simulate left no sim/simulate span")
	}
}

type panicMachine struct{}

func (panicMachine) Simulate(*nn.Network, sim.Phase) *sim.Report { panic("boom") }
