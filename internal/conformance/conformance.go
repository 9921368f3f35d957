// Package conformance is the shared invariant suite every registered
// dataflow backend must pass, so IS, WS, OS, and the GPU roofline
// cannot drift apart behaviorally: determinism, report field sanity,
// context handling, argument validation, capability honesty, and
// mapping-space legality are asserted through one table of checks
// applied uniformly. Backend test packages call Run on their own
// dataflow; conformance's test package runs the whole registry.
package conformance

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// Run asserts the shared dataflow invariants on backend d. The checks use
// LeNet5 — small enough that the full table stays fast even under
// -race — and every supported phase from d's capabilities.
func Run(t *testing.T, d *dataflow.Backend) {
	t.Helper()
	caps := d.Caps
	if caps.ID == "" {
		t.Fatalf("backend declares no ID")
	}
	if len(caps.Phases) == 0 {
		t.Fatalf("%s: capabilities declare no phases", caps.ID)
	}
	if d.Machine == nil || (d.Points != nil && d.Fits == nil) {
		t.Fatalf("%s: backend declares no Machine, or Points without Fits", caps.ID)
	}
	s, err := d.New(d.Default)
	if err != nil {
		t.Fatalf("%s: New(Default): %v", caps.ID, err)
	}

	t.Run("determinism", func(t *testing.T) { checkDeterminism(t, d, s) })
	t.Run("report-sanity", func(t *testing.T) { checkReportSanity(t, d, s) })
	t.Run("context", func(t *testing.T) { checkContext(t, d, s) })
	t.Run("arguments", func(t *testing.T) { checkArguments(t, d, s) })
	t.Run("phases", func(t *testing.T) { checkPhases(t, d, s) })
	t.Run("mappings", func(t *testing.T) { checkMappings(t, d) })
	t.Run("area", func(t *testing.T) { checkArea(t, d) })
}

// checkDeterminism: two simulations of the same input produce
// byte-identical CSV renderings — the property the memo cache and the
// golden outputs rely on.
func checkDeterminism(t *testing.T, d *dataflow.Backend, s sim.Simulator) {
	for _, ph := range d.Caps.Phases {
		var out [2]bytes.Buffer
		for i := range out {
			rep, err := s.Simulate(context.Background(), nn.LeNet5(), ph)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Caps.ID, ph, err)
			}
			if err := rep.WriteCSV(&out[i]); err != nil {
				t.Fatalf("%s/%s: WriteCSV: %v", d.Caps.ID, ph, err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Errorf("%s/%s: repeated simulation is not deterministic", d.Caps.ID, ph)
		}
	}
}

// checkReportSanity: every supported phase yields a report with a
// plausible shape — named arch, positive batch, finite positive energy
// and latency, utilizations within [0, 1].
func checkReportSanity(t *testing.T, d *dataflow.Backend, s sim.Simulator) {
	net := nn.LeNet5()
	for _, ph := range d.Caps.Phases {
		rep, err := s.Simulate(context.Background(), net, ph)
		if err != nil {
			t.Fatalf("%s/%s: %v", d.Caps.ID, ph, err)
		}
		if rep.Arch == "" {
			t.Errorf("%s/%s: report has no arch name", d.Caps.ID, ph)
		}
		if rep.Network != net.Name {
			t.Errorf("%s/%s: report network %q, want %q", d.Caps.ID, ph, rep.Network, net.Name)
		}
		if rep.Phase != ph {
			t.Errorf("%s/%s: report phase %v", d.Caps.ID, ph, rep.Phase)
		}
		if rep.Batch <= 0 {
			t.Errorf("%s/%s: batch %d not positive", d.Caps.ID, ph, rep.Batch)
		}
		e := rep.Total.Energy.Total()
		if !(e > 0) || math.IsInf(e, 0) || math.IsNaN(e) {
			t.Errorf("%s/%s: total energy %v not finite positive", d.Caps.ID, ph, e)
		}
		lat := rep.Total.Latency
		if !(lat > 0) || math.IsInf(lat, 0) || math.IsNaN(lat) {
			t.Errorf("%s/%s: latency %v not finite positive", d.Caps.ID, ph, lat)
		}
		for _, lr := range rep.Layers {
			if lr.Utilization < 0 || lr.Utilization > 1 || math.IsNaN(lr.Utilization) {
				t.Errorf("%s/%s: layer %s utilization %v outside [0,1]",
					d.Caps.ID, ph, lr.Layer.Name, lr.Utilization)
			}
		}
	}
}

// checkContext: a context that ended before the call surfaces as its
// error, never as a report.
func checkContext(t *testing.T, d *dataflow.Backend, s sim.Simulator) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ph := d.Caps.Phases[0]
	if _, err := s.Simulate(ctx, nn.LeNet5(), ph); !errors.Is(err, context.Canceled) {
		t.Errorf("%s: pre-cancelled context: got %v, want context.Canceled", d.Caps.ID, err)
	}
}

// checkArguments: nil and empty networks and unknown phases are
// rejected with the shared sentinels, not panics or garbage reports.
func checkArguments(t *testing.T, d *dataflow.Backend, s sim.Simulator) {
	ctx := context.Background()
	ph := d.Caps.Phases[0]
	if _, err := s.Simulate(ctx, nil, ph); !errors.Is(err, sim.ErrNilNetwork) {
		t.Errorf("%s: nil network: got %v, want ErrNilNetwork", d.Caps.ID, err)
	}
	if _, err := s.Simulate(ctx, &nn.Network{Name: "empty"}, ph); !errors.Is(err, sim.ErrEmptyNetwork) {
		t.Errorf("%s: empty network: got %v, want ErrEmptyNetwork", d.Caps.ID, err)
	}
	if _, err := s.Simulate(ctx, nn.LeNet5(), sim.Phase(99)); err == nil {
		t.Errorf("%s: unknown phase accepted", d.Caps.ID)
	}
}

// checkPhases: capabilities are honest — a declared phase simulates, an
// undeclared one fails with ErrUnsupportedPhase.
func checkPhases(t *testing.T, d *dataflow.Backend, s sim.Simulator) {
	caps := d.Caps
	for _, ph := range []sim.Phase{sim.Inference, sim.Training} {
		_, err := s.Simulate(context.Background(), nn.LeNet5(), ph)
		if caps.Supports(ph) {
			if err != nil {
				t.Errorf("%s: declared phase %s failed: %v", d.Caps.ID, ph, err)
			}
		} else if !errors.Is(err, dataflow.ErrUnsupportedPhase) {
			t.Errorf("%s: undeclared phase %s: got %v, want ErrUnsupportedPhase", d.Caps.ID, ph, err)
		}
	}
}

// checkMappings: the mapping space contains the base point, the zero
// mapping is an identity rewrite, and every enumerated point lowers to
// a configuration the backend can actually construct.
func checkMappings(t *testing.T, d *dataflow.Backend) {
	base := d.Default
	net := nn.LeNet5()
	maps := d.Mappings(base, net)
	if len(maps) == 0 {
		t.Fatalf("%s: empty mapping space", d.Caps.ID)
	}
	hasBase := false
	for _, m := range maps {
		if m.IsZero() {
			hasBase = true
		}
	}
	if !hasBase {
		t.Errorf("%s: mapping space omits the base point", d.Caps.ID)
	}
	if got := d.Apply(base, dataflow.Mapping{}); got != base {
		t.Errorf("%s: Apply(base, zero) rewrote the base configuration", d.Caps.ID)
	}
	for _, m := range maps {
		cfg := d.Apply(base, m)
		if _, err := d.New(cfg); err != nil {
			t.Errorf("%s: mapping %s lowered to an unconstructible config: %v", d.Caps.ID, m.Label(), err)
		}
	}
}

// checkArea: the area hook reports a finite positive area for the
// default configuration.
func checkArea(t *testing.T, d *dataflow.Backend) {
	a := d.Area(d.Default)
	if !(a > 0) || math.IsInf(a, 0) || math.IsNaN(a) {
		t.Errorf("%s: area %v not finite positive", d.Caps.ID, a)
	}
}
