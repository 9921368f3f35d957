// Package serve is the HTTP simulation service over the v2 facade: a
// stdlib-only JSON API that exposes single-cell simulation, declarative
// sweeps on the parallel engine, the model zoo, and the paper's
// experiment suite. Production behaviors are built in, not bolted on:
//
//   - bounded admission — at most MaxInflight requests simulate
//     concurrently and at most QueueDepth more wait; beyond that the
//     server answers 503 with a Retry-After hint instead of blocking or
//     dropping connections;
//   - per-request deadlines — RequestTimeout becomes a context deadline
//     that propagates into the sweep engine, so an abandoned request
//     stops consuming workers at the next cell boundary;
//   - worker-budget coupling — each admitted request runs its sweep with
//     max(1, tensor.Parallelism()/MaxInflight) workers, so a fully
//     loaded server draws the same process-wide budget PR 2's kernels
//     share and never oversubscribes the host;
//   - graceful shutdown — Serve drains in-flight requests when its
//     context ends (SIGINT/SIGTERM in cmd/inca-serve);
//   - observability — request IDs, structured access logs, and /metrics
//     counters (requests, inflight, queue depth, sweep.Cache stats, a
//     latency histogram).
package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/tune"
)

// Options configures a Server. The zero value is production-usable:
// every field has a sensible default applied by New.
type Options struct {
	// MaxInflight bounds how many requests may simulate concurrently;
	// <= 0 means runtime.GOMAXPROCS(0).
	MaxInflight int
	// QueueDepth bounds how many admitted requests may wait for an
	// execution slot beyond MaxInflight; < 0 means 0 (no queue). The
	// default is 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline propagated as a context
	// into the sweep engine; <= 0 means 60s.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 503 responses when the queue
	// is saturated; <= 0 means 1s.
	RetryAfter time.Duration
	// DrainTimeout bounds graceful shutdown: how long Serve waits for
	// in-flight requests after its context ends; <= 0 means 15s.
	DrainTimeout time.Duration
	// ReadinessGrace keeps the listener open that long after readiness
	// flips to 503 at the start of a drain, so load balancers polling
	// /healthz/ready observe the not-ready answer and stop routing before
	// connections are refused; <= 0 means no grace window.
	ReadinessGrace time.Duration
	// MaxBodyBytes bounds request bodies (http.MaxBytesReader); overflow
	// answers 413 with a JSON error. <= 0 means 1 MiB — the largest
	// legitimate payload (a full custom arch.Config inside a sweep
	// request) is a few KB.
	MaxBodyBytes int64
	// Inject, when non-nil, arms the chaos middleware: fault rules at the
	// ChaosSite* sites inject errors, panics, latency, and mid-request
	// cancellations into the request path. Never set in production — this
	// exists for chaos tests and the explicit opt-in flag in
	// cmd/inca-serve.
	Inject *fault.Injector
	// Cache memoizes simulation cells across requests. nil gives the
	// server a private cache.
	Cache *sweep.Cache
	// Store, when non-nil, is the persistent result store attached as the
	// cache's second tier: memory misses consult the store before
	// simulating, successful cells are written through, and results
	// survive restarts (cmd/inca-serve opens one with -store-dir). It
	// also enables GET /v1/store/stats, GET /v1/store/export, and
	// POST /v1/store/import; without a store those answer 404.
	Store *store.Store
	// StoreImportMaxBytes bounds POST /v1/store/import request bodies —
	// corpus imports are legitimately much larger than simulation
	// requests, so they get their own cap instead of MaxBodyBytes.
	// <= 0 means 64 MiB.
	StoreImportMaxBytes int64
	// Logger receives structured access and lifecycle logs. nil discards
	// them (library embedders opt in; cmd/inca-serve passes a real one).
	Logger *slog.Logger
	// Tracer, when non-nil, gives every request a root span
	// (serve/request) that nests the sweep- and sim-layer spans beneath
	// it. Incoming W3C traceparent headers continue the caller's trace;
	// responses carry traceparent and X-Trace-Id, error bodies a
	// trace_id field, and GET /v1/trace/{id} serves the tracer's ring.
	// nil disables tracing at the cost of one nil check per request.
	Tracer *obs.Tracer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU, so production
	// servers opt in explicitly (the -pprof flag in cmd/inca-serve).
	EnablePprof bool
	// SweepRetry is the per-cell retry policy threaded into every
	// request's sweep run, so transient faults (opt.Inject chaos, flaky
	// cells) retry server-side instead of failing the request.
	SweepRetry sweep.RetryPolicy
	// Coalesce configures request-level coalescing of identical
	// /v1/simulate and /v1/sweep requests. Off by default (see
	// CoalesceOptions); cmd/inca-serve enables it with -coalesce.
	Coalesce CoalesceOptions
	// Jobs, when non-nil, mounts the asynchronous job API (POST /v1/jobs
	// and friends): sweep/tune requests execute detached from their
	// callers on the manager's bounded runner pool, with per-cell
	// completion checkpointed through the result store and the manager's
	// journal so interrupted jobs resume after a restart. New arms the
	// manager with this server's executor (job.Manager.Start); the owner
	// closes the manager — before the store — at process exit
	// (cmd/inca-serve opens one with -job-dir). Without a manager the
	// /v1/jobs routes answer 404.
	Jobs *job.Manager
	// Sharder, when non-nil, switches /v1/simulate, /v1/sweep, and sweep
	// jobs to cluster scatter/gather: expanded cells are handed to the
	// sharder (the internal/cluster coordinator in cmd/inca-serve)
	// instead of the local engine, and /healthz/ready reports per-peer
	// health.
	Sharder Sharder
	// ShardID names this node in shard responses and readiness bodies;
	// empty outside cluster deployments.
	ShardID string
	// RetryJitterSeed, when non-zero, arms deterministic jitter on the
	// Retry-After hint of 503 responses (a seeded stream adding up to a
	// quarter of the base hint), so synchronized clients spread their
	// retries instead of re-stampeding. Zero keeps the exact hint.
	RetryJitterSeed int64
	// SLO configures multi-window burn-rate tracking of latency and
	// error objectives (the -slo-p99/-slo-err flags in cmd/inca-serve).
	// When enabled, burn rates are served in /metrics and a fast burn
	// flips /healthz/ready to "degraded" before a hard failure. The
	// zero value disables tracking.
	SLO SLOOptions
	// sloNow overrides the SLO tracker's clock in tests.
	sloNow func() time.Time
}

// withDefaults resolves every unset option.
func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Cache == nil {
		o.Cache = sweep.NewCache()
	}
	if o.Store != nil {
		o.Cache.SetTier(o.Store)
	}
	if o.StoreImportMaxBytes <= 0 {
		o.StoreImportMaxBytes = 64 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Server is the HTTP simulation service. Construct with New; the zero
// value is not usable.
type Server struct {
	opt      Options
	log      *slog.Logger
	cache    *sweep.Cache
	admit    *admission
	metrics  *Metrics
	handler  http.Handler
	coalesce *coalescer // nil when coalescing is off
	// usage is the server-lifetime cost ledger (GET /v1/usage,
	// inca_cost_*); slo is the burn-rate tracker, nil unless objectives
	// are configured.
	usage *usageAccount
	slo   *sloTracker
	// jitterMu guards jitter, the seeded Retry-After jitter stream; both
	// are nil/unused when RetryJitterSeed is zero.
	jitterMu sync.Mutex
	jitter   *rand.Rand
	// ready gates the readiness probe: true from construction until a
	// graceful drain begins. Liveness is unconditional.
	ready atomic.Bool
}

// New builds a Server from options (see Options for the defaults).
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:     opt,
		log:     opt.Logger,
		cache:   opt.Cache,
		admit:   newAdmission(opt.MaxInflight, opt.QueueDepth),
		metrics: &Metrics{start: time.Now()},
		usage:   newUsageAccount(),
	}
	if opt.SLO.enabled() {
		s.slo = newSLOTracker(opt.SLO, opt.sloNow)
	}
	if opt.Coalesce.Enabled {
		s.coalesce = newCoalescer(opt.Coalesce)
	}
	if opt.RetryJitterSeed != 0 {
		s.jitter = rand.New(rand.NewSource(opt.RetryJitterSeed))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/shard/sweep", s.handleShardSweep)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentIndex)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/trace", s.handleTraceIndex)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/shard/trace/{id}", s.handleShardTrace)
	mux.HandleFunc("GET /v1/usage", s.handleUsage)
	mux.HandleFunc("GET /v1/store/stats", s.handleStoreStats)
	mux.HandleFunc("GET /v1/store/export", s.handleStoreExport)
	mux.HandleFunc("POST /v1/store/import", s.handleStoreImport)
	mux.HandleFunc("GET /healthz", s.handleLiveness)
	mux.HandleFunc("GET /healthz/live", s.handleLiveness)
	mux.HandleFunc("GET /healthz/ready", s.handleReadiness)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opt.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.instrument(s.chaos(mux))
	if opt.Jobs != nil {
		// Arm the manager with this server's executor: recovered jobs
		// requeue and the runner pool starts draining immediately.
		opt.Jobs.Start(s.execJob)
	}
	s.ready.Store(true)
	return s
}

// Handler returns the fully instrumented http.Handler (request IDs,
// access logs, panic recovery, metrics). Mount it on any http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's counters (snapshot with Snapshot).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache returns the server's simulation cache.
func (s *Server) Cache() *sweep.Cache { return s.cache }

// Store returns the server's persistent result store, nil when the
// server runs memory-only.
func (s *Server) Store() *store.Store { return s.opt.Store }

// Tracer returns the server's tracer, nil when tracing is disabled.
func (s *Server) Tracer() *obs.Tracer { return s.opt.Tracer }

// runCells evaluates cells and charges every result to ctx's cost tally
// and the usage ledger. It is the only place that picks between the
// local engine and a sharder: with sh nil the cells run on this node's
// engine, through the memo cache and its store tier, and onResult (when
// non-nil) sees each result as it completes; otherwise sh scatters them
// across the cluster, onResult sees each gathered result in order, and
// the returned summary describes the dispatch. layers tells the sharder
// whether the caller needs per-layer reports; callers that keep only
// summary rows pass false, so shards reply with totals alone. Local
// runs always produce full reports.
func (s *Server) runCells(ctx context.Context, sh Sharder, cells []sweep.Cell, layers bool, onResult func(sweep.Result)) ([]sweep.Result, *ShardSummary, error) {
	var (
		results []sweep.Result
		shard   *ShardSummary
		err     error
	)
	if sh == nil {
		results, err = sweep.RunCells(ctx, cells, sweep.Options{
			Workers:  s.requestWorkers(),
			Cache:    s.cache,
			Retry:    s.opt.SweepRetry,
			Inject:   s.opt.Inject,
			OnResult: onResult,
		})
	} else {
		var summary ShardSummary
		results, summary, err = sh.Sweep(ctx, cells, layers)
		shard = &summary
		if err == nil && onResult != nil {
			for _, r := range results {
				onResult(r)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	s.accountResults(cost.FromContext(ctx), results)
	return results, shard, nil
}

// runTune runs the mapping auto-tuner for a compiled tune request: one
// Pareto frontier per model × phase, on the server's engine, cache, and
// retry policy. It returns the frontiers and how many of their
// evaluations failed. Tune runs always stay on this node.
func (s *Server) runTune(ctx context.Context, cs compiledSweep) ([]tune.Frontier, int, error) {
	opt := *cs.tune
	opt.Workers, opt.Cache, opt.Retry = s.requestWorkers(), s.cache, s.opt.SweepRetry
	var fronts []tune.Frontier
	failed := 0
	for _, net := range cs.nets {
		f, err := tune.Search(ctx, net, opt)
		if err != nil {
			return nil, 0, err
		}
		for _, fr := range f {
			failed += fr.Failed
		}
		fronts = append(fronts, f...)
	}
	return fronts, failed, nil
}

// requestWorkers is the sweep worker-pool size granted to one admitted
// request: the process-wide kernel budget split across the admission
// width, never below one. With the server fully loaded this keeps total
// sweep concurrency at the same budget tensor kernels draw from, so the
// service cannot oversubscribe the host.
func (s *Server) requestWorkers() int {
	w := tensor.Parallelism() / s.opt.MaxInflight
	if w < 1 {
		w = 1
	}
	return w
}

// Serve accepts connections on ln until ctx ends, then shuts down
// gracefully: readiness flips to 503 first (and, with ReadinessGrace
// set, the listener stays open that long so balancers observe it), then
// no new connections, and in-flight requests drain for up to
// DrainTimeout. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler: s.handler,
		BaseContext: func(net.Listener) context.Context {
			// Detach request contexts from ctx: shutdown must drain
			// in-flight work, not cancel it mid-cell.
			return context.Background()
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	s.ready.Store(false)
	s.log.Info("shutting down",
		"readiness_grace", s.opt.ReadinessGrace.String(),
		"drain_timeout", s.opt.DrainTimeout.String())
	if s.opt.ReadinessGrace > 0 {
		t := time.NewTimer(s.opt.ReadinessGrace)
		select {
		case <-t.C:
		case err := <-errc:
			t.Stop()
			return err // listener died during the grace window
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opt.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(drainCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
