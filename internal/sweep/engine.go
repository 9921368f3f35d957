package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/tensor"
)

// Span names emitted by the engine when the run's context carries a
// trace (obs.StartSpan is a no-op otherwise). SpanCell covers one
// cell's whole evaluation — queue wait, every retry, backoff — with
// attributes for the cell key, attempt count, cached-ness, and
// queue_wait_s (launch-to-pickup on the worker pool). SpanAttempt is
// one child per evaluation attempt, so fault-injected retries are
// visible as separate spans carrying the attempt's error.
const (
	SpanCell    = "sweep/cell"
	SpanAttempt = "sweep/attempt"
)

// RetryPolicy retries transiently-failed cells with capped exponential
// backoff and jitter. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts bounds evaluation attempts per cell, including the
	// first; <= 1 means a single attempt (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; <= 0 means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; <= 0 means 250ms.
	MaxDelay time.Duration
	// Seed drives the jitter streams. Each cell derives its own stream
	// from Seed and its key, so a run's retry schedule is reproducible at
	// any worker count.
	Seed int64
}

// Options tunes one engine run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoizes cell results. nil gives the run a private cache;
	// pass a shared one to deduplicate across sweeps.
	Cache *Cache
	// KernelParallelism, when > 0, installs that tensor-kernel worker
	// budget (tensor.SetParallelism) while the run drains and restores
	// the previous budget afterwards — the handoff that keeps cells'
	// nested kernel parallelism from oversubscribing the sweep's own
	// worker pool (with W workers on P procs, max(1, P/W) keeps total
	// concurrency near P). The budget is process-wide: when several runs
	// overlap, set it once at startup instead of per run.
	KernelParallelism int
	// Retry re-evaluates cells whose failure classifies as transient,
	// isolating flaky evaluations from the rest of the sweep: other cells
	// keep draining while a retried cell backs off. Terminal failures
	// (invalid configs, context errors) are never retried.
	Retry RetryPolicy
	// Inject, when non-nil, injects faults at site "sweep/cell/<key>"
	// before each evaluation attempt — the deterministic chaos hook.
	// Each cell key draws from its own seeded stream, so injected fault
	// schedules reproduce at any worker count.
	Inject *fault.Injector
	// OnResult, when non-nil, observes every completed cell of a
	// RunCells run as it drains, in completion order. Calls are made
	// serially from the consuming goroutine, so the hook needs no
	// locking of its own — it is the progress checkpoint the job
	// subsystem journals per-cell completion through.
	OnResult func(Result)
}

func (o Options) workers(cells int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result is one completed (or failed) cell evaluation.
type Result struct {
	Cell   Cell
	Report *sim.Report // nil when Err != nil
	// Cached reports that the cell was served by the memoization cache
	// (or coalesced onto another goroutine's in-flight evaluation).
	Cached bool
	// Attempts counts the evaluation attempts this cell took, 1 for a
	// clean first pass; values above 1 mean transient failures were
	// retried away.
	Attempts int
	Err      error
}

// Stream expands the plan and launches the sweep, returning a channel on
// which exactly one Result per cell arrives in completion order. The
// channel closes once every cell has reported. Cancelling ctx stops new
// evaluations; cells that never ran surface with Err set to ctx's error.
// An invalid plan is reported synchronously and launches nothing.
//
// The channel is buffered to the full cell count, so the run never
// blocks on its consumer: a caller that stops draining mid-sweep leaks
// no goroutines and cannot wedge the worker pool — every cell still
// lands in the buffer, the channel still closes, and the process-wide
// kernel budget installed via Options.KernelParallelism is still
// restored. Abandoning the channel without cancelling ctx lets the
// remaining cells evaluate in the background; cancel ctx to stop paying
// for them (they complete immediately with the context error).
func Stream(ctx context.Context, p Plan, opt Options) (<-chan Result, error) {
	cells, err := p.Cells()
	if err != nil {
		return nil, err
	}
	return streamCells(ctx, cells, opt, func(_ int, r Result) Result { return r }), nil
}

// indexedResult pairs a Result with its position in the launched cell
// slice, so callers that run explicit cell lists (RunCells) can restore
// input order without relying on Cell.Seq — shard subsets carry sparse
// Seq values from the coordinating plan.
type indexedResult struct {
	idx int
	res Result
}

// streamCells is the engine core shared by Stream and RunCells (which
// Run calls): it fans the given cells out on the worker pool and
// returns a channel carrying one value per cell in completion order (mk
// shapes each emission — workers send directly, with no intermediate
// hop). The channel is buffered to the cell count, so abandoning the
// consumer never wedges the pool and the kernel-budget handoff is
// always restored.
func streamCells[T any](ctx context.Context, cells []Cell, opt Options, mk func(int, Result) T) <-chan T {
	cache := opt.Cache
	if cache == nil {
		cache = NewCache()
	}

	restoreKernels := func() {}
	if opt.KernelParallelism > 0 {
		prev := tensor.SetParallelism(opt.KernelParallelism)
		restoreKernels = func() { tensor.SetParallelism(prev) }
	}

	// Launch time on the tracer's clock (zero when the run is untraced):
	// each cell's span reports queue_wait_s — launch-to-pickup latency on
	// the worker pool — against this reference.
	launch := obs.ContextTracer(ctx).Now()

	type job struct {
		idx  int
		cell Cell
	}
	feed := make(chan job)
	// Buffered to the cell count: sends below never block, which is what
	// guarantees restoreKernels runs (and goroutines exit) even when the
	// consumer walks away. One Result per cell is a few words; even a
	// 100k-cell grid buffers only megabytes.
	out := make(chan T, len(cells))
	var wg sync.WaitGroup
	for i := 0; i < opt.workers(len(cells)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				out <- mk(j.idx, evaluate(ctx, cache, j.cell, opt, launch))
			}
		}()
	}
	go func() {
		for i, cell := range cells {
			feed <- job{idx: i, cell: cell}
		}
		close(feed)
		wg.Wait()
		restoreKernels()
		close(out)
	}()
	return out
}

// evaluate runs one cell through the cache, honoring cancellation at
// cell granularity and retrying transient failures per the run's policy.
// Failure isolation is per cell: a retrying cell backs off on its own
// worker while the rest of the sweep keeps draining, and a terminal
// failure lands in this cell's Result without aborting siblings.
func evaluate(ctx context.Context, cache *Cache, cell Cell, opt Options, launch time.Time) Result {
	key := cell.Key()
	// Attributes are built only under a live span: boxing them for a
	// variadic call allocates even when the span is inert.
	ctx, span := obs.StartSpan(ctx, SpanCell)
	if span != nil {
		span.SetAttr(
			obs.String("key", key),
			obs.String("arch", cell.Arch.Name),
			obs.String("network", cell.Network.Name),
			obs.String("phase", cell.Phase.String()),
			obs.String("override", cell.Override),
			obs.String("dataflow", cell.Arch.Dataflow))
		if !launch.IsZero() {
			span.SetAttr(obs.Float64("queue_wait_s", span.StartTime().Sub(launch).Seconds()))
		}
	}
	res := evaluateAttempts(ctx, cache, cell, key, opt)
	if span != nil {
		span.SetAttr(obs.Int("attempts", res.Attempts), obs.Bool("cached", res.Cached))
		span.EndWith(res.Err)
	}
	return res
}

// evaluateAttempts is evaluate's retry loop, running under the cell
// span (when traced) so each attempt becomes a visible child span.
// Faults are injected at site "sweep/cell/<key>", built only when the
// run injects any.
func evaluateAttempts(ctx context.Context, cache *Cache, cell Cell, key string, opt Options) Result {
	var site string
	if opt.Inject != nil {
		site = "sweep/cell/" + key
	}
	maxAttempts := opt.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var backoff *fault.Backoff
	res := Result{Cell: cell}
	for {
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		res.Attempts++
		attemptCtx, attempt := obs.StartSpan(ctx, SpanAttempt)
		if attempt != nil {
			attempt.SetAttr(obs.Int("attempt", res.Attempts))
		}
		res.Report, res.Cached, res.Err = cache.Do(attemptCtx, key, func() (*sim.Report, error) {
			if err := opt.Inject.Hit(attemptCtx, site); err != nil {
				return nil, err
			}
			s, err := cell.Arch.Build(cell.Config)
			if err != nil {
				return nil, err
			}
			return s.Simulate(attemptCtx, cell.Network, cell.Phase)
		})
		attempt.EndWith(res.Err)
		if res.Err == nil || res.Attempts >= maxAttempts || !fault.IsTransient(res.Err) || ctx.Err() != nil {
			return res
		}
		if backoff == nil {
			backoff = fault.NewBackoff(opt.Retry.BaseDelay, retryMaxDelay(opt.Retry),
				opt.Retry.Seed^keyJitterSeed(key))
		}
		delay := backoff.Delay(res.Attempts - 1)
		obs.FromContext(ctx).Event("backoff", obs.Int("attempt", res.Attempts), obs.Float64("delay_s", delay.Seconds()))
		if err := fault.Sleep(ctx, delay); err != nil {
			// The context ended mid-backoff: the cell never got its retry,
			// so it carries the context error like any unexecuted cell.
			res.Err = err
			return res
		}
	}
}

// retryMaxDelay resolves the policy's backoff cap.
func retryMaxDelay(p RetryPolicy) time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 250 * time.Millisecond
}

// keyJitterSeed derives a per-cell jitter stream from the cell key, so
// retry schedules do not depend on which worker picked the cell up.
func keyJitterSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// Run executes the plan and returns one Result per cell in deterministic
// plan order (Cell.Seq), regardless of completion order. Per-cell
// failures are reported in each Result's Err; Run's own error is
// non-nil only for an invalid plan, or for an ended context that actually
// cost the run some cells (the returned slice then still has one entry
// per cell, the unexecuted ones carrying the context error). A context
// that ends only after every cell completed does not invalidate the
// results, so Run reports nil.
func Run(ctx context.Context, p Plan, opt Options) ([]Result, error) {
	cells, err := p.Cells()
	if err != nil {
		return nil, err
	}
	// A plan's cells sit at their Seq, so RunCells' input order is plan
	// order. OnResult belongs to RunCells runs only.
	opt.OnResult = nil
	return RunCells(ctx, cells, opt)
}

// RunCells executes an explicit cell list — not a plan cross product —
// and returns one Result per cell in input order. It is the execution
// primitive behind the cluster shard endpoint: a coordinator partitions
// a plan's cells across peers by cache key, and each peer evaluates its
// arbitrary subset here. Cell.Seq values are preserved untouched (they
// index the coordinating plan, not this list), so ordering is by slice
// position. Error semantics match Run: per-cell failures land in each
// Result, and RunCells' own error is non-nil only for a context that
// ended before every cell completed.
func RunCells(ctx context.Context, cells []Cell, opt Options) ([]Result, error) {
	ordered := make([]Result, len(cells))
	for ir := range streamCells(ctx, cells, opt, func(i int, r Result) indexedResult { return indexedResult{i, r} }) {
		ordered[ir.idx] = ir.res
		if opt.OnResult != nil {
			opt.OnResult(ir.res)
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		for _, r := range ordered {
			if r.Err != nil && errors.Is(r.Err, ctxErr) {
				return ordered, ctxErr
			}
		}
	}
	return ordered, nil
}

// ErrMapPanic reports an f that panicked inside Map; the panic is
// converted into this error (wrapping the panic value's rendering) so a
// broken item cannot kill the worker pool or leak its siblings.
var ErrMapPanic = errors.New("sweep: Map function panicked")

// Map runs f over items on at most workers goroutines (<= 0 means
// GOMAXPROCS) and returns the outputs in item order. It is the engine's
// fan-out primitive for work that is not a configuration sweep —
// cmd/inca-experiments uses it to parallelize whole experiments.
//
// Failure isolation: the first error stops new items from being fed, but
// already-started siblings always run to completion before Map returns —
// no goroutine outlives the call, and no in-flight item is abandoned
// mid-write. Items never started are left at their zero value. The first
// error in item order among attempted items (including the context's,
// for items skipped after cancellation, and ErrMapPanic for an f that
// panicked) is returned alongside the partially-filled results.
func Map[T, R any](ctx context.Context, workers int, items []T, f func(context.Context, T) (R, error)) ([]R, error) {
	n := len(items)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]R, n)
	errs := make([]error, n)
	idx := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idx {
				select {
				case <-stop:
					// Halted: the feeder's send may have raced the stop
					// signal, so drain the feed without starting new items.
					// Skipped items keep their zero value and nil error.
					continue
				default:
				}
				if err := ctx.Err(); err != nil {
					errs[j] = err
				} else {
					func() {
						defer func() {
							if rec := recover(); rec != nil {
								errs[j] = fmt.Errorf("%w: %v", ErrMapPanic, rec)
							}
						}()
						results[j], errs[j] = f(ctx, items[j])
					}()
				}
				if errs[j] != nil {
					halt()
				}
			}
		}()
	}
	// Feed until done or halted; then drain every started worker before
	// returning, so an early error cannot leak goroutines still writing
	// into results.
feed:
	for j := 0; j < n; j++ {
		select {
		case idx <- j:
		case <-stop:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
