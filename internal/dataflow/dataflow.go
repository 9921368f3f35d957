// Package dataflow is the registry of accelerator backends behind the
// paper's IS-vs-WS comparison, generalized so input-stationary
// (internal/core), weight-stationary (internal/baseline),
// output-stationary (internal/outstat), and the GPU roofline
// (internal/gpu) are peers. Each backend declares one Backend value —
// its capabilities, default configuration, machine constructor and
// mapping candidates — and registers it by ID from init
// (database/sql-driver style); construction, phase gating, mapping
// rewrite and enumeration are methods on Backend, written once.
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

// Backend is one accelerator execution strategy: which operand stays
// resident in the arrays and how the others stream past it. A backend
// is declared, not implemented: its package fills in the fields below
// and registers the value from init, and the registry derives the
// shared contract from them — construction (New), the crossbar rewrite
// (Apply), mapping-space enumeration (Mappings) and area (Area) — once
// for every backend, so IS, WS, OS and the GPU are built, validated,
// phase-gated and mapped the same way. A registered Backend is shared
// process-wide; callers must not modify it.
type Backend struct {
	// Caps describes what the backend can simulate; Caps.ID is the
	// registry key.
	Caps Capabilities

	// Default is the backend's reference configuration (the paper's
	// Table II column for IS/WS, an iso-capacity comparison point
	// otherwise). A fixed backend (Caps.Configurable false) carries only
	// its display name.
	Default arch.Config

	// Machine constructs the backend's simulator for a configuration New
	// has already validated. A fixed backend ignores its argument.
	Machine func(arch.Config) sim.Machine

	// Points lists the raw candidate mappings of the backend's
	// tile/partition space for net, in order, before Mappings drops the
	// illegal ones. nil for a fixed backend.
	Points func(base arch.Config, net *nn.Network) []Mapping

	// Fits is the capacity bound a validated candidate must meet on net
	// (crossbar multiplexing, buffer capacity). Required when Points is
	// set.
	Fits func(cfg arch.Config, net *nn.Network) bool

	// FixedAreaMM2 is a fixed backend's die area; configurable backends
	// report their configuration's area instead.
	FixedAreaMM2 float64
}

// New validates cfg (configurable backends only) and constructs a
// simulator for it. A backend whose Caps leave out a phase gets a guard
// that fails that phase fast with ErrUnsupportedPhase; the others get
// the bare sim.Wrap adapter, so building a full-phase machine costs no
// extra allocation.
func (b *Backend) New(cfg arch.Config) (sim.Simulator, error) {
	if b.Caps.Configurable {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	s := sim.Wrap(b.Machine(cfg), b.Caps.ID)
	if b.Caps.Supports(sim.Inference) && b.Caps.Supports(sim.Training) {
		return s, nil
	}
	return phaseGuard{inner: s, caps: &b.Caps}, nil
}

// Apply lowers a mapping point onto base, returning the concrete
// configuration New accepts: nonzero mapping fields replace the
// crossbar geometry and the name gains the mapping's label. The zero
// mapping, and any mapping on a fixed backend, returns base unchanged.
func (b *Backend) Apply(base arch.Config, m Mapping) arch.Config {
	if !b.Caps.Configurable {
		return base
	}
	cfg := base
	if m.Rows > 0 {
		cfg.SubarrayRows = m.Rows
	}
	if m.Cols > 0 {
		cfg.SubarrayCols = m.Cols
	}
	if m.Planes > 0 {
		cfg.StackedPlanes = m.Planes
	}
	if !m.IsZero() && cfg != base {
		cfg.Name = fmt.Sprintf("%s[%s]", base.Name, m.Label())
	}
	return cfg
}

// Mappings enumerates the legal points of the backend's mapping space
// for net in deterministic order: the base point (the zero Mapping)
// first, then each of Points that changes base, lowers to a valid
// configuration and Fits net. A fixed backend, or a nil net, has only
// the base point.
func (b *Backend) Mappings(base arch.Config, net *nn.Network) []Mapping {
	out := []Mapping{{}}
	if net == nil || b.Points == nil {
		return out
	}
	for _, m := range b.Points(base, net) {
		cfg := b.Apply(base, m)
		if cfg == base || cfg.Validate() != nil || !b.Fits(cfg, net) {
			continue
		}
		out = append(out, m)
	}
	return out
}

// Area reports the silicon area in mm² of the machine cfg describes; a
// fixed backend reports FixedAreaMM2 whatever cfg is.
func (b *Backend) Area(cfg arch.Config) float64 {
	if !b.Caps.Configurable {
		return b.FixedAreaMM2
	}
	return cfg.Area().Total()
}

// Capabilities describes one backend's envelope: display metadata, the
// phases it can simulate, and whether arch.Config shapes its machines.
type Capabilities struct {
	// ID is the registry key: a short lowercase tag ("is", "ws", "os",
	// "gpu"), stable across releases — it appears in wire schemas and
	// sweep cache keys.
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

// phaseGuard fails the phases its backend's Caps leave out with
// ErrUnsupportedPhase before they reach the machine. Unknown phases
// pass through, so the inner simulator rejects them with the same error
// every backend returns.
type phaseGuard struct {
	inner sim.Simulator
	caps  *Capabilities
}

func (g phaseGuard) Simulate(ctx context.Context, net *nn.Network, phase sim.Phase) (*sim.Report, error) {
	if (phase == sim.Inference || phase == sim.Training) && !g.caps.Supports(phase) {
		return nil, fmt.Errorf("%w: %s cannot simulate %s", ErrUnsupportedPhase, g.caps.ID, phase)
	}
	return g.inner.Simulate(ctx, net, phase)
}
