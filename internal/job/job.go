// Package job is the crash-safe asynchronous sweep-job subsystem: a
// bounded runner pool executing submitted work on caller-detached
// contexts, with every lifecycle event appended to a CRC-framed journal
// so a SIGKILLed process recovers its jobs on the next boot.
//
// The durability split is deliberate: per-cell results are checkpointed
// through the content-addressed result store (internal/store) by the
// executor, while this package journals only the small control-plane
// facts — spec, state transitions, completed-cell counts, the terminal
// summary. A recovered job therefore re-runs its cell list against the
// store and pays only for cells that never checkpointed, producing a
// final body byte-identical to an uninterrupted run.
//
// Lifecycle: queued → running → succeeded | failed | cancelled. A job
// interrupted by shutdown (or SIGKILL) never reaches a terminal record;
// replaying the journal finds it non-terminal and Start requeues it
// with its resume count bumped.
package job

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/inca-arch/inca/internal/wal"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: no runner will touch the
// job again and its result (or error) is durable.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Sentinel errors.
var (
	// ErrQueueFull reports a Submit rejected by queue-depth shedding:
	// every runner is busy and the wait queue is at capacity. The HTTP
	// layer maps it onto 503 + Retry-After.
	ErrQueueFull = errors.New("job: queue full")
	// ErrUnknownJob reports an operation on a job ID the manager does not
	// hold.
	ErrUnknownJob = errors.New("job: unknown job")
	// ErrClosed reports a Submit on a closed manager.
	ErrClosed = errors.New("job: manager closed")
	// ErrRunnerPanic reports an executor that panicked; the manager's
	// runner recovers it into this error so the job lands in a terminal
	// failed state instead of staying running forever — the same
	// vocabulary sweep.ErrEvalPanic establishes for cell evaluations.
	ErrRunnerPanic = errors.New("job: runner panicked")
)

// Exec executes one job: it reads the spec, reports progress through
// the job's SetTotal/AddDone hooks, and returns the terminal result
// body. The context is detached from any HTTP caller and ends only on
// cooperative cancel or manager shutdown; an Exec that returns the
// context's error after a shutdown leaves the job non-terminal, which
// is exactly what lets it resume on the next boot.
type Exec func(ctx context.Context, j *Job) ([]byte, error)

// Options configures a Manager. The zero value is production-usable.
type Options struct {
	// Runners bounds how many jobs execute concurrently; <= 0 means 2.
	// Job sweeps each draw their own worker pool from the process-wide
	// kernel budget, so a small runner count keeps the host subscribed,
	// not oversubscribed.
	Runners int
	// QueueDepth bounds how many submitted jobs may wait beyond the
	// running ones before Submit sheds with ErrQueueFull; <= 0 means 64.
	QueueDepth int
}

func (o Options) withDefaults() Options {
	if o.Runners <= 0 {
		o.Runners = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// Job is one submitted sweep job. All mutable state is guarded by the
// owning manager's mutex; executors touch it only through the exported
// methods.
type Job struct {
	m       *Manager
	id      string
	spec    []byte
	created int64

	state    State
	attempts int
	resumed  int
	total    int
	done     int
	traceID  string
	spanID   string
	body     []byte
	cost     []byte
	errMsg   string

	cancel          context.CancelFunc
	cancelRequested bool
}

// Snapshot is a point-in-time copy of a job's observable state — the
// GET /v1/jobs/{id} payload.
type Snapshot struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// CellsTotal and CellsDone are the checkpointed progress counters;
	// both zero until the executor sized the job.
	CellsTotal int `json:"cells_total"`
	CellsDone  int `json:"cells_done"`
	// Attempts counts runner pickups across the job's whole life,
	// including runs interrupted by a crash.
	Attempts int `json:"attempts"`
	// Resumed counts how many restarts requeued this job from the
	// journal.
	Resumed int    `json:"resumed,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
	Created int64  `json:"created_unix_nano"`
}

// ID returns the job's stable content-derived identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the canonical request bytes the job was submitted with.
// The slice is shared and must be treated as read-only.
func (j *Job) Spec() []byte { return j.spec }

// Attempts returns how many times a runner has picked the job up.
func (j *Job) Attempts() int {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.attempts
}

// SetTotal records the job's cell count and resets the done counter —
// the executor calls it once per run, before evaluating anything.
func (j *Job) SetTotal(n int) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	j.total, j.done = n, 0
	j.m.appendLocked(jrecord{Op: opProgress, ID: j.id, Total: j.total, Done: j.done})
}

// AddDone checkpoints n more completed cells. Each call journals the
// running count, so a crash loses at most the cells completed since the
// last append — and those are still in the result store, so the resumed
// run replays them from disk anyway.
func (j *Job) AddDone(n int) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	j.done += n
	j.m.appendLocked(jrecord{Op: opProgress, ID: j.id, Total: j.total, Done: j.done})
}

// Trace returns the job's journaled root span identity; empty strings
// before the first traced run.
func (j *Job) Trace() (traceID, spanID string) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.traceID, j.spanID
}

// SetTrace journals the job's root span identity on its first traced
// run; later calls are no-ops, so a resumed run keeps the original
// trace and its spans join the same tree.
func (j *Job) SetTrace(traceID, spanID string) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	if j.traceID != "" || traceID == "" {
		return
	}
	j.traceID, j.spanID = traceID, spanID
	j.m.appendLocked(jrecord{Op: opTrace, ID: j.id, TraceID: traceID, SpanID: spanID})
}

// SetCost journals the run's cost summary — an opaque JSON document
// the serve layer both produces and consumes, so the job table stays
// ignorant of its shape. Each run overwrites the previous value: after
// a crash-and-resume the journaled summary is the final attempt's, the
// one whose cells produced the served result body.
func (j *Job) SetCost(b []byte) {
	if len(b) == 0 {
		return
	}
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	j.cost = b
	j.m.appendLocked(jrecord{Op: opCost, ID: j.id, Cost: string(b)})
}

// snapshotLocked copies the observable state; callers hold m.mu.
func (j *Job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:         j.id,
		State:      j.state,
		CellsTotal: j.total,
		CellsDone:  j.done,
		Attempts:   j.attempts,
		Resumed:    j.resumed,
		TraceID:    j.traceID,
		Error:      j.errMsg,
		Created:    j.created,
	}
}

// Stats is the manager's counter snapshot for /metrics and readiness.
type Stats struct {
	// Queued and Running are gauges over the live job table.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Completed, Failed, Cancelled, and Resumed are process-lifetime
	// counters (terminal states reached, journal requeues performed).
	Completed int64 `json:"completed_total"`
	Failed    int64 `json:"failed_total"`
	Cancelled int64 `json:"cancelled_total"`
	Resumed   int64 `json:"resumed_total"`
	// QueueDepth is the configured shedding bound.
	QueueDepth int `json:"queue_depth"`
	// TornRecords counts torn or corrupt journal tails truncated at
	// open — nonzero after recovering from a crash mid-append.
	TornRecords int64 `json:"torn_records"`
	// Jobs is the total job count in the table, terminal included.
	Jobs int `json:"jobs"`
}

// DeriveID returns the stable content-derived job ID for a canonical
// spec: "j" plus the first 16 hex digits of its SHA-256. Equal specs
// collapse onto one job, making submission idempotent.
func DeriveID(spec []byte) string {
	sum := sha256.Sum256(spec)
	return "j" + hex.EncodeToString(sum[:])[:16]
}

// Manager owns the job table, the journal, and the runner pool.
// Construct with Open, arm with Start, release with Close.
type Manager struct {
	opt Options

	mu        sync.Mutex
	jnl       *wal.Log // nil when running memory-only (dir == "") or closed
	jobs      map[string]*Job
	order     []string // submission/replay order for List
	recovered []*Job   // non-terminal journaled jobs awaiting Start
	exec      Exec
	started   bool
	closing   bool

	queue     chan *Job
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	resumed   atomic.Int64
	torn      atomic.Int64

	now func() time.Time // test clock hook; nil means time.Now
}

// Open builds a Manager. With a non-empty dir the journal at
// dir/journal.log is replayed: terminal jobs come back with their
// result bodies servable, non-terminal ones are held for Start to
// requeue. An empty dir runs memory-only — jobs die with the process.
func Open(dir string, opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	m := &Manager{
		opt:  opt,
		jobs: make(map[string]*Job),
		now:  time.Now,
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("job: %w", err)
		}
		jnl, recs, torn, err := openJournal(filepath.Join(dir, "journal.log"))
		if err != nil {
			return nil, err
		}
		m.jnl = jnl
		if torn {
			m.torn.Store(1)
		}
		m.replay(recs)
	}
	// Queue capacity covers the configured depth plus one slot per
	// runner (a dequeued job frees its slot) plus every recovered job,
	// so Start's requeue can never block.
	m.queue = make(chan *Job, opt.Runners+opt.QueueDepth+len(m.recovered))
	m.runCtx, m.runCancel = context.WithCancel(context.Background())
	return m, nil
}

// replay folds the journal's records back into the job table. Unknown
// ops and references to unknown IDs are skipped — a newer journal
// format degrades to partial recovery, never to a failed boot.
func (m *Manager) replay(recs []jrecord) {
	for _, rec := range recs {
		if rec.Op == opSubmit {
			if _, ok := m.jobs[rec.ID]; ok {
				continue
			}
			m.jobs[rec.ID] = &Job{
				m:       m,
				id:      rec.ID,
				spec:    []byte(rec.Spec),
				created: rec.Created,
				state:   StateQueued,
			}
			m.order = append(m.order, rec.ID)
			continue
		}
		j, ok := m.jobs[rec.ID]
		if !ok {
			continue
		}
		switch rec.Op {
		case opRun:
			j.state = StateRunning
			j.attempts = rec.Attempt
		case opResume:
			j.resumed++
		case opTrace:
			j.traceID, j.spanID = rec.TraceID, rec.SpanID
		case opProgress:
			j.total, j.done = rec.Total, rec.Done
		case opCost:
			j.cost = []byte(rec.Cost)
		case opDone:
			j.state = rec.State
			j.body = []byte(rec.Body)
			j.errMsg = rec.Error
		}
	}
	for _, id := range m.order {
		if j := m.jobs[id]; !j.state.Terminal() {
			m.recovered = append(m.recovered, j)
		}
	}
}

// Start arms the manager: recovered jobs are requeued (their resume
// count journaled) and the runner pool spins up executing exec. Start
// is idempotent; only the first call takes effect.
func (m *Manager) Start(exec Exec) {
	m.mu.Lock()
	if m.started || m.closing {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.exec = exec
	for _, j := range m.recovered {
		j.state = StateQueued
		j.resumed++
		m.resumed.Add(1)
		m.appendLocked(jrecord{Op: opResume, ID: j.id})
		m.queue <- j // capacity covers every recovered job
	}
	m.recovered = nil
	m.mu.Unlock()
	for i := 0; i < m.opt.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
}

// Submit registers a job for the canonical spec bytes and returns its
// snapshot. The ID is content-derived, so resubmitting an identical
// spec returns the existing job (created == false) whatever its state —
// idempotent submission is what makes client retries safe. A full
// queue sheds with ErrQueueFull.
func (m *Manager) Submit(spec []byte) (Snapshot, bool, error) {
	id := DeriveID(spec)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return Snapshot{}, false, ErrClosed
	}
	if j, ok := m.jobs[id]; ok {
		return j.snapshotLocked(), false, nil
	}
	j := &Job{
		m:       m,
		id:      id,
		spec:    append([]byte(nil), spec...),
		created: m.now().UnixNano(),
		state:   StateQueued,
	}
	select {
	case m.queue <- j:
	default:
		return Snapshot{}, false, ErrQueueFull
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.appendLocked(jrecord{Op: opSubmit, ID: id, Spec: string(j.spec), Created: j.created})
	return j.snapshotLocked(), true, nil
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshotLocked(), true
}

// List returns every job's snapshot in submission order (replayed jobs
// keep their pre-crash order).
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].snapshotLocked())
	}
	return out
}

// Result returns a job's terminal result body (nil until the job
// succeeds) along with its snapshot.
func (m *Manager) Result(id string) ([]byte, Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Snapshot{}, false
	}
	return j.body, j.snapshotLocked(), true
}

// Cost returns a job's journaled cost summary: the opaque JSON document
// the executor stored with SetCost, or false while no run has recorded
// one yet.
func (m *Manager) Cost(id string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || len(j.cost) == 0 {
		return nil, false
	}
	return j.cost, true
}

// Cancel requests cooperative cancellation: a queued job turns terminal
// immediately (runners skip it at pickup), a running job has its
// context cancelled and turns terminal when its executor returns.
// Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		m.cancelled.Add(1)
		m.appendLocked(jrecord{Op: opDone, ID: j.id, State: StateCancelled, Error: j.errMsg})
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshotLocked(), nil
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	queued, running := 0, 0
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	jobs := len(m.jobs)
	m.mu.Unlock()
	return Stats{
		Queued:      queued,
		Running:     running,
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Cancelled:   m.cancelled.Load(),
		Resumed:     m.resumed.Load(),
		QueueDepth:  m.opt.QueueDepth,
		TornRecords: m.torn.Load(),
		Jobs:        jobs,
	}
}

// Close stops the runner pool (cancelling running jobs' contexts),
// waits for runners to exit, and closes the journal. Interrupted jobs
// keep their non-terminal journal state, so the next Open recovers and
// requeues them — a graceful shutdown and a SIGKILL converge on the
// same resume path.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	m.mu.Unlock()
	m.runCancel()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jnl == nil {
		return nil
	}
	err := m.jnl.Close()
	m.jnl = nil
	return err
}

// appendLocked journals one record; callers hold m.mu. A failing disk
// degrades durability (the record is lost, the job resumes one step
// further back) but never liveness — the in-memory table is already
// updated, mirroring the result store's swallow-IO-errors stance.
func (m *Manager) appendLocked(rec jrecord) {
	if m.jnl == nil {
		return
	}
	if payload, err := json.Marshal(rec); err == nil {
		_, _ = m.jnl.Append(payload)
	}
}

// runner is one pool goroutine: it drains the queue until the manager
// closes.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		select {
		case <-m.runCtx.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob drives one job through running into a terminal state — or, on
// manager shutdown, leaves it non-terminal for the next boot to resume.
func (m *Manager) runJob(j *Job) {
	m.mu.Lock()
	if j.state != StateQueued {
		// Cancelled (or otherwise finished) while waiting in the queue.
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.attempts++
	ctx, cancel := context.WithCancel(m.runCtx)
	j.cancel = cancel
	m.appendLocked(jrecord{Op: opRun, ID: j.id, Attempt: j.attempts})
	m.mu.Unlock()

	body, err := m.protect(ctx, j)
	cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.body = body
		m.completed.Add(1)
		m.appendLocked(jrecord{Op: opDone, ID: j.id, State: StateSucceeded, Body: string(body)})
	case j.cancelRequested:
		j.state = StateCancelled
		j.errMsg = err.Error()
		m.cancelled.Add(1)
		m.appendLocked(jrecord{Op: opDone, ID: j.id, State: StateCancelled, Error: j.errMsg})
	case m.closing && errors.Is(err, context.Canceled):
		// Shutdown interrupted the run: no terminal record, so the journal
		// still ends at "run" and the next Open requeues the job.
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		m.failed.Add(1)
		m.appendLocked(jrecord{Op: opDone, ID: j.id, State: StateFailed, Error: j.errMsg})
	}
}

// protect invokes the executor with panic recovery: a runner goroutine
// must survive any executor, and the job must land in a terminal failed
// state instead of staying running forever.
func (m *Manager) protect(ctx context.Context, j *Job) (body []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", ErrRunnerPanic, rec)
		}
	}()
	return m.exec(ctx, j)
}
