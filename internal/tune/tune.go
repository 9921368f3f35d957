// Package tune is the mapping auto-tuner on top of the dataflow
// registry: for a network it takes each backend's legal
// tile/partition/loop-order points (dataflow.Backend.Mappings: the base
// point, then the backend's declared candidates that survive validation
// and its capacity bound), lowers every point onto a concrete
// arch.Config with Backend.Apply, evaluates the candidates as cells on
// the sweep engine — memo cache and transient-failure retries for free —
// and reduces the survivors to per-phase Pareto frontiers over (energy,
// latency, area), all minimized. A phase a backend's Capabilities leave
// out is a structural gap in that phase's frontier, not a failure.
//
// The search is exhaustive over the declared mapping spaces, which the
// backends keep small by construction (tens of points, bounded by
// crossbar- and buffer-capacity constraints); candidates never collide
// across dataflows because the sweep cache key carries the backend ID.
package tune

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// ErrNoCandidates reports a search whose option set produced no
// evaluable mapping candidates.
var ErrNoCandidates = errors.New("tune: no mapping candidates to evaluate")

// Options tunes one search.
type Options struct {
	// Dataflows selects the backends to search, by registry ID or alias.
	// Empty means every registered backend.
	Dataflows []string
	// Phases selects the simulation phases; empty means inference only.
	// A backend that cannot simulate a phase contributes no candidates
	// to that phase's frontier (it is skipped, not failed).
	Phases []sim.Phase
	// MaxPerDataflow bounds the mapping points searched per backend
	// (the base point plus the first N-1 enumerated); <= 0 means all.
	MaxPerDataflow int
	// Workers bounds the sweep engine's worker pool; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Cache memoizes candidate evaluations; pass a shared cache to
	// deduplicate across searches. nil gives the search a private one.
	Cache *sweep.Cache
	// Retry re-evaluates transiently-failed candidates (see
	// sweep.RetryPolicy).
	Retry sweep.RetryPolicy
}

// Candidate is one evaluated mapping point.
type Candidate struct {
	// Dataflow is the backend's registry ID.
	Dataflow string `json:"dataflow"`
	// Mapping is the tile/partition point; zero means the backend's
	// default configuration.
	Mapping dataflow.Mapping `json:"mapping"`
	// Config is the concrete configuration the mapping lowered to.
	Config arch.Config `json:"-"`
	// Label is the candidate's display name (config name).
	Label string `json:"label"`

	Report   *sim.Report `json:"-"`
	EnergyJ  float64     `json:"energy_j"`
	LatencyS float64     `json:"latency_s"`
	AreaMM2  float64     `json:"area_mm2"`

	Cached   bool   `json:"cached,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"error,omitempty"`
}

// dominates reports whether a is at least as good as b on every
// objective and strictly better on at least one (minimization).
func (a Candidate) dominates(b Candidate) bool {
	if a.EnergyJ > b.EnergyJ || a.LatencyS > b.LatencyS || a.AreaMM2 > b.AreaMM2 {
		return false
	}
	return a.EnergyJ < b.EnergyJ || a.LatencyS < b.LatencyS || a.AreaMM2 < b.AreaMM2
}

// Frontier is one network × phase search result.
type Frontier struct {
	Network string    `json:"network"`
	Phase   sim.Phase `json:"phase"`
	// Evaluated counts candidates that produced a report; Failed counts
	// candidates whose evaluation errored (excluded from the frontier).
	Evaluated int `json:"evaluated"`
	Failed    int `json:"failed"`
	// Pareto is the non-dominated candidate set, sorted by ascending
	// energy (so descending latency along the frontier).
	Pareto []Candidate `json:"pareto"`
}

// candidate pairs a sweep axis with its mapping provenance.
type candidate struct {
	arch    sweep.Arch
	mapping dataflow.Mapping
	area    float64
	caps    *dataflow.Capabilities
}

// Search evaluates the mapping spaces of the selected backends on net
// and returns one Pareto frontier per requested phase, in phase order.
// Per-candidate failures are folded into the frontiers' Failed counts;
// Search's own error is reserved for invalid arguments, an empty
// candidate set, or a context that ended mid-search.
func Search(ctx context.Context, net *nn.Network, opt Options) ([]Frontier, error) {
	if net == nil {
		return nil, sim.ErrNilNetwork
	}
	phases := opt.Phases
	if len(phases) == 0 {
		phases = []sim.Phase{sim.Inference}
	}
	ids := opt.Dataflows
	if len(ids) == 0 {
		ids = dataflow.IDs()
	}

	var cands []candidate
	for _, id := range ids {
		d, err := dataflow.Get(id)
		if err != nil {
			return nil, err
		}
		base := d.Default
		mappings := d.Mappings(base, net)
		if opt.MaxPerDataflow > 0 && len(mappings) > opt.MaxPerDataflow {
			mappings = mappings[:opt.MaxPerDataflow]
		}
		for _, m := range mappings {
			cfg := d.Apply(base, m)
			ax, err := sweep.Resolve(d.Caps.ID, &cfg, 0)
			if err != nil {
				return nil, err
			}
			cands = append(cands, candidate{arch: ax, mapping: m, area: d.Area(cfg), caps: &d.Caps})
		}
	}
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}

	archs := make([]sweep.Arch, len(cands))
	byName := make(map[string]candidate, len(cands))
	for i, c := range cands {
		archs[i] = c.arch
		byName[c.arch.Name] = c
	}
	plan := sweep.Plan{Archs: archs, Networks: []*nn.Network{net}, Phases: phases}
	results, err := sweep.Run(ctx, plan, sweep.Options{
		Workers: opt.Workers,
		Cache:   opt.Cache,
		Retry:   opt.Retry,
	})
	if err != nil && len(results) == 0 {
		return nil, err
	}

	frontiers := make([]Frontier, len(phases))
	for i, ph := range phases {
		frontiers[i] = Frontier{Network: net.Name, Phase: ph}
	}
	phaseIdx := make(map[sim.Phase]int, len(phases))
	for i, ph := range phases {
		phaseIdx[ph] = i
	}
	for _, r := range results {
		c, ok := byName[r.Cell.Arch.Name]
		if !ok {
			continue
		}
		f := &frontiers[phaseIdx[r.Cell.Phase]]
		if !c.caps.Supports(r.Cell.Phase) {
			// Structural gap, not a failure: the backend declares it
			// cannot run this phase.
			continue
		}
		cand := Candidate{
			Dataflow: r.Cell.Dataflow(),
			Mapping:  c.mapping,
			Config:   r.Cell.Config,
			Label:    r.Cell.Arch.Name,
			Report:   r.Report,
			AreaMM2:  c.area,
			Cached:   r.Cached,
			Attempts: r.Attempts,
		}
		if r.Err != nil {
			cand.Err = r.Err.Error()
			f.Failed++
			continue
		}
		cand.EnergyJ = r.Report.Total.Energy.Total()
		cand.LatencyS = r.Report.Total.Latency
		f.Evaluated++
		f.Pareto = append(f.Pareto, cand)
	}
	if err != nil {
		return frontiers, err
	}
	for i := range frontiers {
		frontiers[i].Pareto = pareto(frontiers[i].Pareto)
	}
	return frontiers, nil
}

// pareto reduces candidates to the non-dominated set, sorted by
// ascending energy with latency then area as tiebreakers.
func pareto(cands []Candidate) []Candidate {
	var front []Candidate
	for i, c := range cands {
		dominated := false
		for j, o := range cands {
			if i == j {
				continue
			}
			if o.dominates(c) {
				dominated = true
				break
			}
			// Exact duplicates keep only their first occurrence.
			if j < i && o.EnergyJ == c.EnergyJ && o.LatencyS == c.LatencyS && o.AreaMM2 == c.AreaMM2 {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		a, b := front[i], front[j]
		if a.EnergyJ != b.EnergyJ {
			return a.EnergyJ < b.EnergyJ
		}
		if a.LatencyS != b.LatencyS {
			return a.LatencyS < b.LatencyS
		}
		return a.AreaMM2 < b.AreaMM2
	})
	return front
}

// String renders a frontier as a compact table for CLI output.
func (f Frontier) String() string {
	s := fmt.Sprintf("%s/%s: %d evaluated, %d failed, %d on frontier",
		f.Network, f.Phase, f.Evaluated, f.Failed, len(f.Pareto))
	for _, c := range f.Pareto {
		s += fmt.Sprintf("\n  %-40s %-4s energy=%.3e J  latency=%.3e s  area=%.1f mm2",
			c.Label, c.Dataflow, c.EnergyJ, c.LatencyS, c.AreaMM2)
	}
	return s
}
