package serve

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"

	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tune"
)

// SpanJob is the root span of one job execution on the runner pool. A
// job's first run journals the span identity; resumed runs restart the
// trace under the same root (obs.WithRemoteParent), so every attempt of
// a job — across process restarts — lands in one joined trace tree.
const SpanJob = "serve/job"

// ErrJobsDisabled reports a job operation on a server built without a
// job manager (Options.Jobs nil): the /v1/jobs API answers 404 and the
// facade wrappers return this error.
var ErrJobsDisabled = errors.New("serve: job API is not enabled (no job manager configured)")

// JobCell is one cell's summary row in a job result body: CellResult
// minus the cached flag, which varies between a cold run and a
// disk-served resume and would break the byte-identity contract.
type JobCell struct {
	Arch            string  `json:"arch"`
	Dataflow        string  `json:"dataflow,omitempty"`
	Override        string  `json:"override,omitempty"`
	Network         string  `json:"network"`
	Phase           string  `json:"phase"`
	Error           string  `json:"error,omitempty"`
	EnergyJ         float64 `json:"energy_j"`
	LatencyS        float64 `json:"latency_s"`
	EnergyPerImageJ float64 `json:"energy_per_image_j"`
	ThroughputIPS   float64 `json:"throughput_ips"`
	Utilization     float64 `json:"utilization"`
}

// JobResult is the terminal body of a succeeded job, journaled once and
// served verbatim by GET /v1/jobs/{id}/result. It deliberately carries
// no cache statistics and no per-cell cached flags: everything in it is
// a pure function of the spec and the simulated reports, which is what
// makes an interrupted-and-resumed job's body byte-identical to an
// uninterrupted run's.
type JobResult struct {
	JobID     string          `json:"job_id"`
	Cells     []JobCell       `json:"cells"`
	Failed    int             `json:"failed"`
	Frontiers []tune.Frontier `json:"frontiers,omitempty"`
}

// JobList is the GET /v1/jobs payload.
type JobList struct {
	Jobs []job.Snapshot `json:"jobs"`
}

// compiledSweep is a validated, executable form of a SweepRequest.
type compiledSweep struct {
	nets  []*nn.Network
	cells []sweep.Cell
	// newStyle marks requests that select backends through the dataflow
	// fields; only their bodies carry per-cell dataflow IDs.
	newStyle bool
	// tune is set for auto-tuner requests, holding the validated search
	// (backends, phases, bound); cells stays nil.
	tune *tune.Options
}

// compileSweep validates a sweep/tune request and returns its executable
// form. It is the only request compiler: /v1/sweep, job submission, and
// job execution all call it, so they accept and reject the same bodies
// with the same messages.
func compileSweep(req SweepRequest) (compiledSweep, error) {
	var cs compiledSweep
	for _, name := range req.Models {
		net, err := nn.ByName(name)
		if err != nil {
			return cs, err
		}
		cs.nets = append(cs.nets, net)
	}
	var phases []sim.Phase
	for _, name := range req.Phases {
		phase, err := sim.ParsePhase(name)
		if err != nil {
			return cs, err
		}
		phases = append(phases, phase)
	}
	if req.Tune != nil {
		if len(cs.nets) == 0 {
			return cs, errors.New("tune request needs at least one model")
		}
		dataflows := req.Tune.Dataflows
		if len(dataflows) == 0 {
			dataflows = req.Dataflows
		}
		for _, id := range dataflows {
			if _, err := dataflow.Get(id); err != nil {
				return cs, err
			}
		}
		cs.tune = &tune.Options{Dataflows: dataflows, Phases: phases, MaxPerDataflow: req.Tune.MaxPerDataflow}
		return cs, nil
	}
	cs.newStyle = len(req.Dataflows) > 0
	if err := checkPlanSize(len(req.Archs)+len(req.Dataflows), len(req.Overrides), len(cs.nets), len(phases)); err != nil {
		return cs, err
	}
	ids := slices.Concat(req.Archs, req.Dataflows)
	archs := make([]sweep.Arch, len(ids))
	for i, id := range ids {
		ax, err := sweep.Resolve(id, nil, req.Batch)
		if err != nil {
			return cs, err
		}
		archs[i] = ax
	}
	var overrides []sweep.Override
	for _, spec := range req.Overrides {
		overrides = append(overrides, spec.override())
	}
	plan := sweep.Plan{Archs: archs, Networks: cs.nets, Phases: phases, Overrides: overrides}
	cells, err := plan.Cells()
	if err != nil {
		return cs, err
	}
	cs.cells = cells
	return cs, nil
}

// maxSweepCells bounds the cells one sweep plan may expand to. A plan's
// size is the product of its axis lengths, so a body far below
// MaxBodyBytes can name hundreds of thousands of cells. A cell is 32 B
// and shares its (arch, override) axis (376 B, plus its 368-B arch);
// even with an axis and an arch per cell, the cap keeps one compiled
// plan under 8 MiB.
const maxSweepCells = 10000

// checkPlanSize rejects a plan of more than maxSweepCells cells before
// any cell is built. An empty override axis still yields one cell per
// arch, network and phase; the product saturates instead of
// overflowing.
func checkPlanSize(archs, overrides, nets, phases int) error {
	n := 1
	for _, k := range []int{archs, max(overrides, 1), nets, phases} {
		if k > 0 && n > math.MaxInt/k {
			n = math.MaxInt
		} else {
			n *= k
		}
	}
	if n > maxSweepCells {
		return fmt.Errorf("sweep plan expands to %d cells, over the limit of %d", n, maxSweepCells)
	}
	return nil
}

// canonicalJobSpec validates a request and returns its canonical bytes:
// the strict re-marshalling that job IDs are derived from, so two
// submissions of the same logical request — whatever their whitespace
// or field order on the wire — collapse onto one job.
func canonicalJobSpec(req SweepRequest) ([]byte, error) {
	if _, err := compileSweep(req); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

// Jobs returns the server's job manager, nil when the async job API is
// disabled.
func (s *Server) Jobs() *job.Manager { return s.opt.Jobs }

// SubmitJob validates the request and submits it as an asynchronous
// job, returning the job's snapshot — the facade-level twin of
// POST /v1/jobs. Resubmitting an identical request returns the existing
// job's snapshot.
func (s *Server) SubmitJob(req SweepRequest) (job.Snapshot, error) {
	jm := s.opt.Jobs
	if jm == nil {
		return job.Snapshot{}, ErrJobsDisabled
	}
	spec, err := canonicalJobSpec(req)
	if err != nil {
		return job.Snapshot{}, err
	}
	snap, _, err := jm.Submit(spec)
	return snap, err
}

// JobStatus returns one job's snapshot — the facade-level twin of
// GET /v1/jobs/{id}. Unknown IDs return job.ErrUnknownJob.
func (s *Server) JobStatus(id string) (job.Snapshot, error) {
	jm := s.opt.Jobs
	if jm == nil {
		return job.Snapshot{}, ErrJobsDisabled
	}
	snap, ok := jm.Get(id)
	if !ok {
		return job.Snapshot{}, job.ErrUnknownJob
	}
	return snap, nil
}

// handleJobSubmit is POST /v1/jobs: validate the sweep/tune body,
// derive the content-addressed job ID, and enqueue. 202 for a freshly
// created job, 200 for an idempotent resubmission, 503 + Retry-After
// when the runner queue sheds.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	jm := s.opt.Jobs
	if jm == nil {
		s.writeError(w, http.StatusNotFound, ErrJobsDisabled)
		return
	}
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	spec, err := canonicalJobSpec(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, created, err := jm.Submit(spec)
	if err != nil {
		if errors.Is(err, job.ErrQueueFull) {
			s.writeUnavailable(w, err)
			return
		}
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, snap)
}

// handleJobList is GET /v1/jobs: every job's snapshot in submission
// order (journal-replayed jobs keep their pre-crash order).
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	jm := s.opt.Jobs
	if jm == nil {
		s.writeError(w, http.StatusNotFound, ErrJobsDisabled)
		return
	}
	s.writeJSON(w, http.StatusOK, JobList{Jobs: jm.List()})
}

// handleJobGet is GET /v1/jobs/{id}: state, checkpointed progress,
// attempts, resume count, and the trace ID to follow into /v1/trace.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	jm := s.opt.Jobs
	if jm == nil {
		s.writeError(w, http.StatusNotFound, ErrJobsDisabled)
		return
	}
	id := r.PathValue("id")
	snap, ok := jm.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", job.ErrUnknownJob, id))
		return
	}
	// The job's cost summary — journaled when an execution finalizes —
	// is spliced in only on opt-in, keeping the default snapshot body
	// byte-identical across releases.
	if wantsCost(r) {
		if b, ok := jm.Cost(id); ok {
			var sum cost.Summary
			if json.Unmarshal(b, &sum) == nil {
				s.writeJSONCost(w, http.StatusOK, snap, sum)
				return
			}
		}
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// handleJobResult is GET /v1/jobs/{id}/result: the terminal body. A
// succeeded job's journaled JSON is served verbatim (the byte-identity
// contract) or rendered as CSV on negotiation; a failed job answers
// 500 with its error, a cancelled one 410, a live one 409.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	jm := s.opt.Jobs
	if jm == nil {
		s.writeError(w, http.StatusNotFound, ErrJobsDisabled)
		return
	}
	id := r.PathValue("id")
	body, snap, ok := jm.Result(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", job.ErrUnknownJob, id))
		return
	}
	switch snap.State {
	case job.StateSucceeded:
		if wantsCSV(r) {
			var res JobResult
			if err := json.Unmarshal(body, &res); err != nil {
				s.writeError(w, http.StatusInternalServerError, err)
				return
			}
			s.writeJobCSV(w, res)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(body); err != nil {
			s.log.Error("writing job result", "err", err)
		}
	case job.StateFailed:
		s.writeError(w, http.StatusInternalServerError, errors.New(snap.Error))
	case job.StateCancelled:
		s.writeError(w, http.StatusGone, fmt.Errorf("job %s was cancelled", id))
	default:
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s (%d/%d cells); result not ready", id, snap.State, snap.CellsDone, snap.CellsTotal))
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: cooperative cancellation.
// Queued jobs turn terminal immediately; running ones have their
// context cancelled and turn terminal when the executor yields.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	jm := s.opt.Jobs
	if jm == nil {
		s.writeError(w, http.StatusNotFound, ErrJobsDisabled)
		return
	}
	id := r.PathValue("id")
	snap, err := jm.Cancel(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", job.ErrUnknownJob, id))
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// writeJobCSV renders a job result as CSV, one row per cell — the sweep
// CSV schema minus the volatile cached column.
func (s *Server) writeJobCSV(w http.ResponseWriter, res JobResult) {
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"arch", "override", "network", "phase", "error",
		"energy_j", "latency_s", "energy_per_image_j", "throughput_ips", "utilization"})
	for _, c := range res.Cells {
		_ = cw.Write([]string{
			c.Arch, c.Override, c.Network, c.Phase, c.Error,
			fmt.Sprintf("%.6e", c.EnergyJ),
			fmt.Sprintf("%.6e", c.LatencyS),
			fmt.Sprintf("%.6e", c.EnergyPerImageJ),
			fmt.Sprintf("%.6e", c.ThroughputIPS),
			fmt.Sprintf("%.4f", c.Utilization),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		s.log.Error("writing job csv", "err", err)
	}
}

// execJob is the executor the server arms its job manager with: decode
// the journaled spec, evaluate on the engine (write-through to the
// result store checkpoints every cell), and marshal the deterministic
// terminal body. It runs on the runner pool's detached context, so an
// HTTP caller going away never interrupts it; only cooperative cancel
// and shutdown do.
func (s *Server) execJob(ctx context.Context, j *job.Job) (body []byte, err error) {
	// A panicking evaluation must reclaim the job into a terminal failed
	// state, not orphan it in running: recover here (under the job span,
	// so the panic is visible in the trace) using the same vocabulary
	// the engine's cache establishes for panicking cells. The manager
	// keeps its own ErrRunnerPanic backstop beneath this.
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", sweep.ErrEvalPanic, rec)
		}
	}()
	// A job execution gets its own cost tally — the runner context is
	// detached from any HTTP request. The finalized summary is
	// journaled on the job (survives restarts, served by
	// GET /v1/jobs/{id}?cost=1) and folded into the usage ledger.
	ctx, tally := cost.NewContext(ctx)
	defer func() {
		sum := tally.Snapshot()
		s.usage.addTotals(sum, true)
		if b, jerr := json.Marshal(sum); jerr == nil {
			j.SetCost(b)
		}
	}()
	if t := s.opt.Tracer; t != nil {
		if tid, sid := j.Trace(); tid != "" {
			// Resumed run: rebuild the journaled root as a remote parent so
			// this attempt's spans join the job's original trace tree.
			ctx = obs.WithRemoteParent(ctx, tid, sid)
		}
		var span *obs.Span
		ctx, span = t.Start(ctx, SpanJob,
			obs.String("job_id", j.ID()), obs.Int("attempt", j.Attempts()))
		j.SetTrace(span.TraceID(), span.SpanID())
		defer func() { span.EndWith(err) }()
	}
	if err := s.opt.Inject.Hit(ctx, ChaosSiteJob); err != nil {
		return nil, err
	}
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(j.Spec()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("job spec: %w", err)
	}
	cs, err := compileSweep(req)
	if err != nil {
		return nil, err
	}
	if cs.tune != nil {
		// Frontier cells checkpoint through the cache's store tier like
		// sweep cells, so a resumed tune job replays evaluated mappings
		// from disk; progress counters stay zero (the search sizes itself).
		fronts, failed, err := s.runTune(ctx, cs)
		if err != nil {
			return nil, err
		}
		return marshalJobResult(JobResult{JobID: j.ID(), Cells: []JobCell{}, Failed: failed, Frontiers: fronts})
	}
	j.SetTotal(len(cs.cells))
	// Only error-free cells checkpoint: they are in the result store and
	// will replay from disk, which is what cells_done promises. A failed
	// or cancelled cell re-runs on resume, so it stays uncounted.
	// Job rows need only each report's totals; a coordinator with a store
	// still gathers full reports to persist (storeSharder).
	results, _, err := s.runCells(ctx, s.jobSharder(), cs.cells, false, func(r sweep.Result) {
		if r.Err == nil {
			j.AddDone(1)
		}
	})
	if err != nil {
		return nil, err
	}
	return marshalJobResult(jobResult(j.ID(), results, cs.newStyle))
}

// jobSharder is the sharder a job's cells run on. Sharded cells bypass
// the coordinator's memo cache and with it the store tier, so on a
// coordinator with a result store a job reads and writes the store
// around the dispatch itself (storeSharder); synchronous requests
// dispatch through the bare sharder and leave the store alone.
func (s *Server) jobSharder() Sharder {
	if s.opt.Sharder == nil || s.opt.Store == nil {
		return s.opt.Sharder
	}
	return storeSharder{Sharder: s.opt.Sharder, st: s.opt.Store}
}

// storeSharder checkpoints a sharded job through the result store:
// cells the store already holds are answered from it without dispatch
// (a recovered coordinator re-dispatches only incomplete cells), and
// every gathered report is written back, so the next interruption
// resumes from it too. It always asks for full reports, whatever the
// caller needs: a totals-only report must never enter the store.
type storeSharder struct {
	Sharder
	st *store.Store
}

func (ss storeSharder) Sweep(ctx context.Context, cells []sweep.Cell, _ bool) ([]sweep.Result, ShardSummary, error) {
	results := make([]sweep.Result, len(cells))
	var pending []sweep.Cell
	var pendingIdx []int
	var pendingKeys []string
	for i, c := range cells {
		key := c.Key()
		if rep, ok := ss.st.Get(key); ok {
			results[i] = sweep.Result{Cell: c, Report: rep, Cached: true, Attempts: 1}
			continue
		}
		pending = append(pending, c)
		pendingIdx = append(pendingIdx, i)
		pendingKeys = append(pendingKeys, key)
	}
	if len(pending) == 0 {
		return results, ShardSummary{}, nil
	}
	gathered, summary, err := ss.Sharder.Sweep(ctx, pending, true)
	if err != nil {
		return nil, summary, err
	}
	for k, r := range gathered {
		results[pendingIdx[k]] = r
		if r.Err == nil {
			ss.st.Put(pendingKeys[k], r.Report)
		}
	}
	return results, summary, nil
}

// jobResult folds engine results into the deterministic terminal body:
// sweepSummary's rows without the cache-dependent cached flag.
func jobResult(id string, results []sweep.Result, newStyle bool) JobResult {
	res := JobResult{JobID: id, Cells: make([]JobCell, 0, len(results))}
	for _, r := range results {
		row := summaryRow(r, newStyle)
		if r.Err != nil {
			res.Failed++
		}
		res.Cells = append(res.Cells, JobCell{
			Arch: row.Arch, Dataflow: row.Dataflow, Override: row.Override,
			Network: row.Network, Phase: row.Phase, Error: row.Error,
			EnergyJ: row.EnergyJ, LatencyS: row.LatencyS, EnergyPerImageJ: row.EnergyPerImageJ,
			ThroughputIPS: row.ThroughputIPS, Utilization: row.Utilization,
		})
	}
	return res
}

// marshalJobResult renders the terminal body bytes that are journaled
// and later served verbatim: compact JSON plus a trailing newline,
// matching writeJSON's framing.
func marshalJobResult(res JobResult) ([]byte, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
