// Package dataflow defines the pluggable accelerator-backend interface
// behind the paper's IS-vs-WS comparison, generalized so input-stationary
// (internal/core), weight-stationary (internal/baseline),
// output-stationary (internal/outstat), and the GPU roofline
// (internal/gpu) are peers: each backend constructs a machine from an
// arch.Config plus mapping parameters, reports its capabilities and the
// legal tile/partition points of its mapping space, and registers itself
// by ID in a process-wide registry (database/sql-driver style).
//
// The package sits below every backend — it imports only arch, nn, and
// sim — so backends can register from their init functions without
// import cycles. Consumers (the facade, the sweep engine, the HTTP
// service, the auto-tuner) resolve backends through Get/All and never
// name concrete packages.
package dataflow

import (
	"context"
	"errors"
	"fmt"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// Registry and construction errors. Callers test them with errors.Is.
var (
	// ErrUnknownDataflow reports a lookup of an ID no backend registered.
	ErrUnknownDataflow = errors.New("dataflow: unknown dataflow")
	// ErrUnsupportedPhase reports a simulation phase outside a backend's
	// Capabilities.Phases (e.g. training on the output-stationary model,
	// whose in-array accumulators have no gradient path).
	ErrUnsupportedPhase = errors.New("dataflow: unsupported phase")
)

// Dataflow is one accelerator execution strategy: which operand stays
// resident in the arrays and how the others stream past it. A Dataflow
// is a factory plus metadata — machines it constructs do the actual
// simulation; implementations must be safe for concurrent use.
type Dataflow interface {
	// ID is the registry key: a short lowercase tag ("is", "ws", "os",
	// "gpu"), stable across releases — it appears in wire schemas and
	// sweep cache keys.
	ID() string

	// Capabilities describes what the backend can simulate. Its slices
	// may be shared across calls; callers must not modify them.
	Capabilities() Capabilities

	// DefaultConfig returns the backend's reference configuration (the
	// paper's Table II column for IS/WS, iso-capacity comparison points
	// otherwise). Fixed backends (Capabilities.Configurable == false)
	// return a zero Config.
	DefaultConfig() arch.Config

	// New validates cfg and constructs a simulator for it. Backends that
	// ignore cfg (the GPU roofline) accept any value including the zero
	// Config.
	New(cfg arch.Config) (sim.Simulator, error)

	// Mappings enumerates the legal tile/partition points of the
	// backend's mapping space for net, each expressible as a rewrite of
	// base: points that violate crossbar-geometry or buffer-capacity
	// constraints are excluded. Fixed backends return a single zero
	// Mapping (their one roofline point). The slice is in deterministic
	// order; base's own point is always included.
	Mappings(base arch.Config, net *nn.Network) []Mapping

	// Apply lowers a mapping point onto base, returning the concrete
	// configuration New accepts. Apply(base, Mapping{}) with a zero
	// mapping returns base unchanged.
	Apply(base arch.Config, m Mapping) arch.Config

	// Area reports the silicon area in mm² of the machine cfg describes
	// (fixed backends ignore cfg and report their device's die area).
	Area(cfg arch.Config) float64
}

// Capabilities describes one backend's envelope: display metadata, the
// phases it can simulate, and whether arch.Config shapes its machines.
type Capabilities struct {
	// ID mirrors Dataflow.ID.
	ID string `json:"id"`
	// Name is the human-readable dataflow name ("Input-stationary").
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description"`
	// Phases lists the supported simulation phases in execution order.
	Phases []sim.Phase `json:"phases"`
	// Configurable reports whether arch.Config affects the constructed
	// machine; false for the fixed GPU roofline, whose overrides
	// collapse to one sweep cache cell.
	Configurable bool `json:"configurable"`
	// Aliases lists extra user-facing names Normalize resolves to this
	// backend (legacy wire names like "inca" and "baseline"); they never
	// appear in output, only in lookup.
	Aliases []string `json:"-"`
}

// Supports reports whether the backend can simulate phase.
func (c Capabilities) Supports(phase sim.Phase) bool {
	for _, p := range c.Phases {
		if p == phase {
			return true
		}
	}
	return false
}

// Mapping is one point of a backend's tile/partition search space,
// expressed in array coordinates: Rows × Cols × Planes selects the
// crossbar tile shape, LoopOrder names which loop the point keeps
// outermost (backend-specific: the IS model fixes the input window
// outermost; the OS model's aspect encodes the position-vs-channel
// refetch tradeoff). Zero fields mean "keep the base configuration's
// value", so the zero Mapping is always legal.
type Mapping struct {
	Rows      int    `json:"rows,omitempty"`
	Cols      int    `json:"cols,omitempty"`
	Planes    int    `json:"planes,omitempty"`
	LoopOrder string `json:"loop_order,omitempty"`
}

// IsZero reports whether the mapping keeps the base configuration.
func (m Mapping) IsZero() bool { return m == Mapping{} }

// Label renders the mapping for override names, cache keys, and result
// tables: "16x16x64" or "128x128" with an optional "/loop-order"
// suffix; the zero mapping renders as "base".
func (m Mapping) Label() string {
	if m.IsZero() {
		return "base"
	}
	s := fmt.Sprintf("%dx%d", m.Rows, m.Cols)
	if m.Planes > 1 {
		s = fmt.Sprintf("%dx%dx%d", m.Rows, m.Cols, m.Planes)
	}
	if m.LoopOrder != "" {
		s += "/" + m.LoopOrder
	}
	return s
}

// GuardPhases wraps s so phases outside allowed fail fast with
// ErrUnsupportedPhase instead of reaching the machine. Argument
// validation order matches sim.Wrap: nil/empty network and context
// errors still surface first (the inner simulator checks them), because
// the guard only rejects phases it knows the backend cannot run.
func GuardPhases(s sim.Simulator, id string, allowed ...sim.Phase) sim.Simulator {
	return phaseGuard{inner: s, id: id, allowed: allowed}
}

type phaseGuard struct {
	inner   sim.Simulator
	id      string
	allowed []sim.Phase
}

func (g phaseGuard) Simulate(ctx context.Context, net *nn.Network, phase sim.Phase) (*sim.Report, error) {
	known := phase == sim.Inference || phase == sim.Training
	if known {
		ok := false
		for _, p := range g.allowed {
			if p == phase {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s cannot simulate %s", ErrUnsupportedPhase, g.id, phase)
		}
	}
	return g.inner.Simulate(ctx, net, phase)
}
