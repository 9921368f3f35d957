// Package cost is the per-request cost accountant of the observability
// plane: one Tally rides each request (or job) context from the serve
// layer down, and the serve layer charges it once per materialized
// sweep result (cells, attempts, and the simulator's own energy/latency
// totals) and once per coalesced replay. The resulting Summary is the
// "cost" block on /v1/simulate, /v1/sweep, and /v1/jobs/{id} responses,
// the currency of the GET /v1/usage rollup, and the source of the
// inca_cost_* Prometheus families.
//
// Units follow the repo's simulation currency: energy in joules and
// latency in seconds (the paper's nJ/cycles figures are the same
// quantities before unit normalization — see DESIGN §16). Every field
// belongs to the one request it describes, so summaries add: figures
// measured for the whole process (CPU time, tensor-kernel activity,
// memo-cache traffic) are not charged here but exported once, as
// process counters on /metrics.
package cost

import (
	"context"
	"sync"
	"time"
)

// CellCounts is the classification of materialized sweep results: how
// many cells, how many of them came from a cache tier or failed, the
// engine attempts spent on them, and the simulator totals of the
// successful ones. The serve layer derives one value per result and
// adds it to both the request's Summary and the usage row of the
// cell's model×dataflow.
type CellCounts struct {
	// Cells counts simulation cells, including cached and failed ones;
	// CachedCells and FailedCells partition the interesting subsets out
	// of it.
	Cells       int64 `json:"cells"`
	CachedCells int64 `json:"cached_cells"`
	FailedCells int64 `json:"failed_cells"`
	// Attempts counts engine evaluation attempts (>= Cells - CachedCells
	// when retries fire); Retries = Attempts beyond each cell's first.
	Attempts int64 `json:"attempts"`
	Retries  int64 `json:"retries"`
	// Simulator totals summed over the successful cells: modeled energy
	// in joules and modeled latency in seconds, matching the simulation
	// reports exactly.
	SimEnergyJ  float64 `json:"sim_energy_j"`
	SimLatencyS float64 `json:"sim_latency_s"`
}

// Cell classifies one materialized result: the attempts the engine
// spent on it and, for a successful cell, the simulator's modeled
// energy/latency totals.
func Cell(cached, failed bool, attempts int, energyJ, latencyS float64) CellCounts {
	c := CellCounts{Cells: 1}
	if cached {
		c.CachedCells = 1
	}
	if attempts > 0 {
		c.Attempts = int64(attempts)
		c.Retries = int64(attempts - 1)
	}
	if failed {
		c.FailedCells = 1
	} else {
		c.SimEnergyJ, c.SimLatencyS = energyJ, latencyS
	}
	return c
}

// Add accumulates o into c field by field.
func (c *CellCounts) Add(o CellCounts) {
	c.Cells += o.Cells
	c.CachedCells += o.CachedCells
	c.FailedCells += o.FailedCells
	c.Attempts += o.Attempts
	c.Retries += o.Retries
	c.SimEnergyJ += o.SimEnergyJ
	c.SimLatencyS += o.SimLatencyS
}

// Summary is one request's (or job's, or the server-lifetime's) rolled
// up cost. All fields are plain sums, so summaries add: the /v1/usage
// totals are exactly the sum of every finalized per-request Summary.
type Summary struct {
	// WallS is wall-clock seconds from tally creation to snapshot.
	WallS float64 `json:"wall_s"`
	CellCounts
	// CoalescedHits counts whole requests answered by replaying another
	// caller's in-flight execution (0 or 1 per request).
	CoalescedHits int64 `json:"coalesced_hits"`
}

// Add accumulates o into s field by field.
func (s *Summary) Add(o Summary) {
	s.WallS += o.WallS
	s.CellCounts.Add(o.CellCounts)
	s.CoalescedHits += o.CoalescedHits
}

// Tally accumulates one request's cost. Construct with NewContext,
// which starts the wall clock, and charge from any layer via
// FromContext. All methods are safe for concurrent use and nil-safe, so
// callers charge unconditionally — an untallied context costs one nil
// check.
type Tally struct {
	mu    sync.Mutex
	start time.Time
	s     Summary
}

type ctxKey struct{}

// NewContext returns ctx carrying a fresh tally, and the tally.
func NewContext(ctx context.Context) (context.Context, *Tally) {
	t := &Tally{start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, t), t
}

// FromContext returns the context's tally, nil when none is attached
// (all Tally methods tolerate a nil receiver).
func FromContext(ctx context.Context) *Tally {
	t, _ := ctx.Value(ctxKey{}).(*Tally)
	return t
}

// AddCells charges classified sweep results.
func (t *Tally) AddCells(c CellCounts) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.s.CellCounts.Add(c)
	t.mu.Unlock()
}

// CoalescedHit charges one coalesced replay; the serve coalescer calls
// it for each joiner it answers from a leader's recording.
func (t *Tally) CoalescedHit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.s.CoalescedHits++
	t.mu.Unlock()
}

// Snapshot measures the wall clock now and returns the summary. It may
// be called more than once — each call re-measures against the same
// start, so the last call before the response is written wins.
func (t *Tally) Snapshot() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.s
	s.WallS = time.Since(t.start).Seconds()
	return s
}
