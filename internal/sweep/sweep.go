// Package sweep is the concurrent evaluation engine behind the paper's
// cross-product studies: {INCA, WS baseline, GPU} × networks × phases ×
// configuration overrides. A declarative Plan expands into Cells, a
// bounded worker pool fans the cells out, a result cache memoizes
// repeated cells by their key (Cell.Key) with singleflight-style
// deduplication, and results stream back as they complete — or are
// collected in deterministic plan order.
package sweep

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"

	// The paper's backends register themselves with the dataflow
	// registry; the sweep package links them in so every registry-built
	// plan works out of the box.
	_ "github.com/inca-arch/inca/internal/baseline"
	_ "github.com/inca-arch/inca/internal/core"
	_ "github.com/inca-arch/inca/internal/gpu"
	_ "github.com/inca-arch/inca/internal/outstat"
)

// Plan expansion errors.
var (
	ErrEmptyPlan   = errors.New("sweep: plan has no architectures, networks, or phases")
	ErrNilBuild    = errors.New("sweep: architecture has no Build function")
	ErrNilNetwork  = errors.New("sweep: plan contains a nil network")
	ErrNilOverride = errors.New("sweep: override has no Apply function")
)

// Arch names one architecture axis of a sweep: a base configuration and
// a builder that turns a (possibly overridden) configuration into a
// simulator.
type Arch struct {
	Name string
	// Dataflow is the registry ID of the backend evaluating this axis
	// ("is", "ws", "os", "gpu"). It is part of every cell's cache key,
	// so identical configs under different dataflows never collide in
	// the memo cache.
	Dataflow string
	// Base is the configuration overrides are applied to.
	Base arch.Config
	// Build constructs a simulator for one resolved configuration. It is
	// called once per distinct cell key; the returned simulator must be
	// safe for concurrent use.
	Build func(arch.Config) (sim.Simulator, error)
	// Fixed marks architectures whose model ignores Config (the GPU
	// roofline): overrides do not fork new cells, so every override of a
	// fixed arch shares one cache key.
	Fixed bool
}

// INCAArch returns the paper's INCA accelerator as a sweep axis.
func INCAArch() Arch { return mustResolve("is", nil) }

// BaselineArch returns the 2D WS baseline as a sweep axis.
func BaselineArch() Arch { return mustResolve("ws", nil) }

// OutStatArch returns the output-stationary comparison point as a sweep
// axis (inference only — training cells fail with
// dataflow.ErrUnsupportedPhase).
func OutStatArch() Arch { return mustResolve("os", nil) }

// GPUArch returns the Titan RTX roofline model as a sweep axis.
func GPUArch() Arch { return mustResolve("gpu", nil) }

// ConfigArch wraps an explicit configuration (e.g. one loaded from JSON)
// as a sweep axis, selecting the backend by its Dataflow field.
func ConfigArch(cfg arch.Config) Arch { return mustResolve("", &cfg) }

// DataflowArch resolves a registered dataflow backend — by ID or any
// alias Normalize accepts — into a sweep axis running its default
// configuration.
func DataflowArch(id string) (Arch, error) { return Resolve(id, nil, 0) }

// Resolve is the one place a backend selection becomes a sweep axis.
// id is a registry ID or alias (case-insensitive; the legacy names
// "inca" and "baseline" and the display names "INCA", "WS-Baseline" and
// "TitanRTX" are aliases). An empty id with a custom config lets the
// config's own Dataflow field pick the backend. A custom config replaces
// the backend's default one, and batch > 0 sets the batch size on
// configurable backends only. The axis is named after its config, or
// after the backend when the config has no name; it builds with the
// backend's New and is Fixed when the backend is not configurable.
func Resolve(id string, custom *arch.Config, batch int) (Arch, error) {
	if id == "" && custom != nil {
		id = dataflow.FromConfig(*custom)
	}
	d, err := dataflow.Get(id)
	if err != nil {
		return Arch{}, err
	}
	caps := d.Caps
	cfg := d.Default
	if custom != nil {
		cfg = *custom
	}
	if batch > 0 && caps.Configurable {
		cfg.BatchSize = batch
	}
	name := cfg.Name
	if name == "" {
		name = caps.Name
	}
	return Arch{Name: name, Dataflow: caps.ID, Base: cfg, Build: d.New, Fixed: !caps.Configurable}, nil
}

// mustResolve resolves a backend this package links in (see the imports
// above), so the lookup cannot fail.
func mustResolve(id string, custom *arch.Config) Arch {
	a, err := Resolve(id, custom, 0)
	if err != nil {
		panic(err)
	}
	return a
}

// Override is one named configuration transform of the sweep's config
// axis (e.g. "batch=16" setting BatchSize).
type Override struct {
	Name  string
	Apply func(arch.Config) arch.Config
}

// Plan declares a sweep as the cross product of its axes. Overrides may
// be empty, meaning every architecture runs its base configuration.
type Plan struct {
	Archs     []Arch
	Networks  []*nn.Network
	Phases    []sim.Phase
	Overrides []Override
}

// Axis is one resolved (arch, override) pair of a plan: the arch, the
// override's name and the configuration the override gives it. Every
// cell of the pair points at it, so the cache-key prefix the cells
// share is rendered once per axis, on first use (see Cell.Key); cells
// that never run, such as a coalesced request's compiled plan, never
// render it. An axis must not be copied once its cells exist.
type Axis struct {
	Arch     *Arch
	Override string // name of the applied override, "" for the base config
	Config   arch.Config

	once   sync.Once
	prefix string
}

// keyPrefix returns "arch/dataflow/config/", rendering it on first use.
func (a *Axis) keyPrefix() string {
	a.once.Do(func() {
		cfgID := "fixed"
		if !a.Arch.Fixed {
			cfgID = a.Config.Fingerprint()
		}
		a.prefix = a.Arch.Name + "/" + a.Arch.Dataflow + "/" + cfgID + "/"
	})
	return a.prefix
}

// Cell is one fully-resolved evaluation of the plan's cross product: an
// axis, a network and a phase. The axis is embedded, so a cell reads
// its Arch, Override and Config directly.
type Cell struct {
	// Seq is the cell's position in deterministic plan order
	// (archs, outermost, then overrides, networks, phases).
	Seq int
	*Axis
	Network *nn.Network
	Phase   sim.Phase
}

// Dataflow returns the registry ID of the backend evaluating this cell.
func (c Cell) Dataflow() string { return c.Arch.Dataflow }

// Key returns the cell's cache key, "arch/dataflow/config/network/phase"
// with config the arch.Config fingerprint, or "fixed" for Fixed archs.
// It is the cell's one identity: two cells with equal keys produce
// byte-identical reports, so the memo cache, the result store, ring
// placement, fault sites and the cell span all address the cell by it.
func (c Cell) Key() string {
	return c.keyPrefix() + c.Network.Name + "/" + c.Phase.String()
}

// Cells expands the plan into its deterministic cell sequence,
// validating the axes. Each (arch, override) pair resolves once into an
// Axis that its cells share; the plan's archs are copied once, so later
// changes to p.Archs do not reach the cells. Fixed architectures ignore
// the override axis but still produce one cell per override so result
// tables stay rectangular; the cache collapses them to a single
// evaluation. Expansion makes three allocations whatever the plan's
// size: the archs, the axes and the cells.
func (p Plan) Cells() ([]Cell, error) {
	if len(p.Archs) == 0 || len(p.Networks) == 0 || len(p.Phases) == 0 {
		return nil, ErrEmptyPlan
	}
	overrides := p.Overrides
	if len(overrides) == 0 {
		overrides = []Override{{}}
	}
	archs := slices.Clone(p.Archs)
	axes := make([]Axis, len(archs)*len(overrides))
	cells := make([]Cell, 0, len(axes)*len(p.Networks)*len(p.Phases))
	for i := range archs {
		a := &archs[i]
		if a.Build == nil {
			return nil, fmt.Errorf("%w: %s", ErrNilBuild, a.Name)
		}
		for j, ov := range overrides {
			ax := &axes[i*len(overrides)+j]
			ax.Arch, ax.Override, ax.Config = a, ov.Name, a.Base
			if ov.Name != "" || ov.Apply != nil {
				if ov.Apply == nil {
					return nil, fmt.Errorf("%w: %s", ErrNilOverride, ov.Name)
				}
				if !a.Fixed {
					ax.Config = ov.Apply(ax.Config)
				}
			}
			for _, net := range p.Networks {
				if net == nil {
					return nil, ErrNilNetwork
				}
				for _, ph := range p.Phases {
					cells = append(cells, Cell{Seq: len(cells), Axis: ax, Network: net, Phase: ph})
				}
			}
		}
	}
	return cells, nil
}
