// Command inca-serve runs the HTTP simulation service: the paper's
// design-space queries (single cells, declarative sweeps, suite
// experiments) behind a production JSON API with bounded admission,
// per-request deadlines, structured access logs, and graceful shutdown
// on SIGINT/SIGTERM.
//
// Usage:
//
//	inca-serve -addr :8321
//	inca-serve -inflight 8 -queue 128 -request-timeout 30s
//	inca-serve -kernels 4          # cap the process-wide tensor budget
//	inca-serve -store-dir /var/lib/inca   # persist results; restarts warm-start from disk
//	inca-serve -job-dir /var/lib/inca-jobs   # journal async jobs; restarts resume them
//	inca-serve -trace-jsonl t.jsonl -pprof   # tracing + profiling endpoints
//	inca-serve -chaos-seed 42      # opt-in fault injection (never in production)
//	inca-serve -peers http://10.0.0.2:8321,http://10.0.0.3:8321   # cluster coordinator
//	inca-serve -shard-id s1 -warm-from http://10.0.0.2:8321       # shard, warm-started
//
// With -peers the node becomes a cluster coordinator: /v1/sweep cells
// are consistent-hashed across the peers by cache key, dispatched in
// parallel, and merged back in plan order; a peer lost mid-sweep has
// its cells rehashed onto the survivors, and /healthz/ready reports
// per-peer health. Identical concurrent requests coalesce into one
// execution unless -coalesce=false.
//
// Endpoints:
//
//	POST /v1/simulate            one (config, network, phase) cell
//	POST /v1/sweep               declarative plan on the parallel engine
//	POST /v1/shard/sweep         explicit cell list (cluster coordinators call this)
//	POST /v1/jobs                submit a sweep as a durable async job (202 + job id)
//	GET  /v1/jobs                list jobs, submission order
//	GET  /v1/jobs/{id}           one job's state and progress
//	GET  /v1/jobs/{id}/result    a succeeded job's result (JSON or CSV)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET  /v1/models              the network zoo
//	GET  /v1/experiments         experiment index
//	GET  /v1/experiments/{id}    one paper table/figure
//	GET  /v1/trace               trace index: one summary row per retained trace
//	GET  /v1/trace/{id}          one trace, federated across cluster peers
//	GET  /v1/shard/trace/{id}    this node's spans for one trace (coordinators call this)
//	GET  /v1/usage               per-request cost rollup, keyed model x dataflow
//	GET  /v1/store/stats         persistent result-store counters (with -store-dir)
//	GET  /v1/store/export        result corpus as JSON lines
//	POST /v1/store/import        merge an exported corpus
//	GET  /debug/pprof/           runtime profiles (only with -pprof)
//	GET  /healthz                liveness (also /healthz/live; ?format=json adds build info)
//	GET  /healthz/ready          readiness — 503 once draining begins; "degraded" on SLO fast burn
//	GET  /metrics                counters, gauges, cache stats (JSON or Prometheus)
//
// With -slo-p99 (and optionally -slo-err) the server tracks multi-window
// burn rates against the latency and error-budget objectives; burn
// rates ride /metrics and /healthz/ready flips to "degraded" (still
// 200) on a fast burn, before hard failure. POST /v1/simulate,
// POST /v1/sweep, and GET /v1/jobs/{id} accept ?cost=1 (or
// X-Inca-Cost: 1) to append a per-request cost-attribution block;
// without the flag bodies are byte-identical to previous releases.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/inca-arch/inca"
	"github.com/inca-arch/inca/internal/cli"
	"github.com/inca-arch/inca/internal/client"
	"github.com/inca-arch/inca/internal/cluster"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sweep"
)

func main() {
	// SIGINT/SIGTERM triggers graceful shutdown: the listener closes and
	// in-flight requests drain before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inca-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	inflight := fs.Int("inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue depth beyond -inflight; overflow answers 503")
	reqTimeout := fs.Duration("request-timeout", 60*time.Second, "per-request deadline propagated into the sweep engine")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 503 responses")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain budget for in-flight requests")
	readinessGrace := fs.Duration("readiness-grace", 0, "keep serving after /healthz/ready flips 503 so load balancers drift away first")
	maxBody := fs.Int64("max-body", 1<<20, "request-body byte cap; overflow answers 413")
	kernels := fs.Int("kernels", 0, "process-wide tensor-kernel worker budget (0 = GOMAXPROCS tracking)")
	storeDir := fs.String("store-dir", "", "persist simulation results in this directory for warm restarts (empty = memory-only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "result-store size cap in bytes; overflow compacts oldest-first (0 = 256 MiB)")
	storeTTL := fs.Duration("store-ttl", 0, "result-store record time-to-live; expired records evict at compaction (0 = keep forever)")
	jobDir := fs.String("job-dir", "", "journal async jobs in this directory so restarts resume them (empty = jobs are memory-only)")
	jobRunners := fs.Int("job-runners", 0, "async-job runner pool size (0 = 2)")
	jobQueue := fs.Int("job-queue", 0, "async-job queue depth beyond the runner pool; overflow answers 503 (0 = 64)")
	quiet := fs.Bool("quiet", false, "suppress all logs (same as -log-level off)")
	logLevel := cli.LogLevelFlag(fs)
	traceJSONL := fs.String("trace-jsonl", "", "enable tracing and append every completed span to this JSONL file")
	traceRing := fs.Int("trace-ring", 0, "enable tracing with an in-memory ring of this many spans (0 = default size when tracing is on)")
	pprofOn := fs.Bool("pprof", false, "mount GET /debug/pprof/ runtime profiling endpoints")
	chaosSeed := fs.Int64("chaos-seed", 0, "arm the fault injector with this seed (0 = off; never use in production)")
	chaosProb := fs.Float64("chaos-prob", 0.1, "per-request probability of each armed chaos fault")
	chaosLatency := fs.Duration("chaos-latency", 50*time.Millisecond, "injected latency for the chaos latency fault")
	chaosCellDelay := fs.Duration("chaos-cell-delay", 0, "inject this latency into every sweep cell (needs -chaos-seed; 0 = off)")
	peers := fs.String("peers", "", "comma-separated shard base URLs; non-empty makes this node a cluster coordinator")
	shardID := fs.String("shard-id", "", "this node's name in shard responses and readiness bodies")
	coalesceOn := fs.Bool("coalesce", true, "coalesce identical concurrent /v1/simulate and /v1/sweep requests into one execution")
	coalesceWait := fs.Duration("coalesce-wait", 250*time.Millisecond, "coalescing window, measured from a flight's start")
	warmFrom := fs.String("warm-from", "", "peer base URL to pull the result corpus from at boot (needs -store-dir)")
	retryJitterSeed := fs.Int64("retry-jitter-seed", 1, "seed for Retry-After jitter on 503 responses (0 = exact hints, no jitter)")
	sloP99 := fs.Duration("slo-p99", 0, "latency objective: the p99 target requests are measured against (0 = SLO tracking off)")
	sloErr := fs.Float64("slo-err", 0.001, "error-budget objective: tolerated 5xx fraction for burn-rate math (needs -slo-p99)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *warmFrom != "" && *storeDir == "" {
		fmt.Fprintln(stderr, "inca-serve: -warm-from needs -store-dir (the corpus lands in the persistent store)")
		return 2
	}
	if *kernels > 0 {
		inca.SetKernelParallelism(*kernels)
	}
	// The kernel-stats hook is free when idle, so the server always
	// installs one: /metrics reports kernel occupancy out of the box.
	inca.InstallKernelStats()

	level := *logLevel
	if *quiet {
		level = "off"
	}
	logger, err := cli.NewLogger(stderr, level)
	if err != nil {
		fmt.Fprintln(stderr, "inca-serve:", err)
		return 2
	}

	// Tracing is on when either trace flag is given; the ring always
	// backs GET /v1/trace/{id}, the JSONL file additionally persists
	// every span for offline analysis.
	var tracer *inca.Tracer
	var traceFile *os.File
	if *traceJSONL != "" || *traceRing > 0 {
		opts := []inca.TracerOption{inca.WithTraceRing(*traceRing)}
		if *traceJSONL != "" {
			traceFile, err = os.OpenFile(*traceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(stderr, "inca-serve:", err)
				return 1
			}
			defer traceFile.Close()
			opts = append(opts, inca.WithTraceJSONL(traceFile))
		}
		tracer = inca.NewTracer(opts...)
		logger.Info("tracing enabled", "jsonl", *traceJSONL, "ring", *traceRing)
	}

	// With -store-dir the cache gets a persistent second tier: the index
	// rebuild at open is the warm start — every previously simulated
	// cell serves from disk instead of recomputing.
	var st *inca.ResultStore
	if *storeDir != "" {
		st, err = inca.OpenResultStore(*storeDir, inca.ResultStoreOptions{
			MaxBytes: *storeMaxBytes,
			TTL:      *storeTTL,
		})
		if err != nil {
			fmt.Fprintln(stderr, "inca-serve:", err)
			return 1
		}
		defer st.Close()
		stats := st.Stats()
		logger.Info("result store open",
			"dir", stats.Dir, "entries", stats.Entries,
			"segments", stats.Segments, "bytes", stats.Bytes,
			"torn_records", stats.TornRecords)
		// Cluster warm start: pull a sibling's exported corpus into the
		// local store before serving, so a fresh shard answers its ring
		// share from disk instead of recomputing the cluster's history.
		// A failed pull degrades to a cold start — the peer may simply
		// not be up yet.
		if *warmFrom != "" {
			if err := warmStart(ctx, st, *warmFrom, logger); err != nil {
				logger.Warn("warm start failed, starting cold", "from", *warmFrom, "err", err.Error())
			}
		}
	}

	// The job manager is always on — /v1/jobs works out of the box with
	// memory-only state; -job-dir adds the journal that makes jobs
	// survive crashes. It opens after the store so a resumed job's
	// re-execution finds the completed cells already on disk, and its
	// deferred Close runs before the store's (LIFO), so runners stop
	// writing before the store goes away.
	jm, err := inca.OpenJobManager(*jobDir, inca.JobManagerOptions{
		Runners:    *jobRunners,
		QueueDepth: *jobQueue,
	})
	if err != nil {
		fmt.Fprintln(stderr, "inca-serve:", err)
		return 1
	}
	defer jm.Close()
	if *jobDir != "" {
		js := jm.Stats()
		logger.Info("job journal open", "dir", *jobDir,
			"jobs", js.Jobs, "torn_records", js.TornRecords)
	}

	// Chaos mode is strictly opt-in: without -chaos-seed the injector is
	// nil and the fault paths cost nothing.
	var inj *inca.FaultInjector
	if *chaosSeed != 0 {
		inj = inca.NewFaultInjector(*chaosSeed)
		// -chaos-prob 0 leaves the random request faults unarmed (the
		// fault package reads a zero Prob as "always", which is never what
		// a smoke script armed only for -chaos-cell-delay wants).
		if *chaosProb > 0 {
			inj.Add(inca.FaultRule{Site: inca.ChaosSiteRequest, Kind: inca.FaultError, Prob: *chaosProb})
			inj.Add(inca.FaultRule{Site: inca.ChaosSiteExec, Kind: inca.FaultLatency, Prob: *chaosProb, Delay: *chaosLatency})
		}
		if *chaosCellDelay > 0 {
			// Deterministic per-cell drag (Prob 1) at the sweep engine's
			// cell site: the crash-resume smoke test uses it to widen the
			// window between checkpoints so a kill -9 lands mid-job.
			inj.Add(inca.FaultRule{Site: sweep.SpanCell + "/*", Kind: inca.FaultLatency, Prob: 1, Delay: *chaosCellDelay})
		}
		logger.Warn("chaos mode armed: requests will randomly fail",
			"seed", *chaosSeed, "prob", *chaosProb, "latency", chaosLatency.String())
	}

	// The cache is built up front (instead of letting the service default
	// one) so a cluster coordinator's local-fallback engine shares it.
	cache := sweep.NewCache()
	var sharder serve.Sharder
	if *peers != "" {
		peerList := splitPeers(*peers)
		co, err := cluster.New(cluster.Options{
			Peers: peerList,
			// The armed breaker keeps a dead shard from eating a full
			// retry budget on every readiness probe and dispatch: after 8
			// consecutive transient failures its client fails fast until
			// the cooldown's half-open probe finds the peer again.
			Client: client.Options{Logger: logger, BreakerThreshold: 8},
			Cache:  cache,
			Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(stderr, "inca-serve:", err)
			return 2
		}
		sharder = co
		logger.Info("cluster coordinator mode", "peers", len(peerList))
	}

	// SLO tracking is armed only by -slo-p99: the error-budget default
	// alone must not flip readiness into its structured body, which
	// would surprise plain-text health probes.
	var sloOpt serve.SLOOptions
	if *sloP99 > 0 {
		sloOpt = serve.SLOOptions{TargetP99: *sloP99, ErrorBudget: *sloErr}
		logger.Info("slo tracking enabled", "p99", sloP99.String(), "error_budget", *sloErr)
	}

	svc := inca.NewService(inca.ServiceOptions{
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		RequestTimeout: *reqTimeout,
		RetryAfter:     *retryAfter,
		DrainTimeout:   *drain,
		ReadinessGrace: *readinessGrace,
		MaxBodyBytes:   *maxBody,
		Cache:          cache,
		Store:          st,
		Logger:         logger,
		Inject:         inj,
		Tracer:         tracer,
		EnablePprof:    *pprofOn,
		Coalesce: serve.CoalesceOptions{
			Enabled: *coalesceOn,
			MaxWait: *coalesceWait,
		},
		Jobs:            jm,
		Sharder:         sharder,
		ShardID:         *shardID,
		RetryJitterSeed: *retryJitterSeed,
		SLO:             sloOpt,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The resolved address line is the boot handshake: scripts (and the
	// serve-smoke target) wait for it before sending traffic.
	fmt.Fprintf(stdout, "inca-serve listening on http://%s\n", ln.Addr())
	if err := svc.Serve(ctx, ln); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, "inca-serve drained, bye")
	return 0
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// warmStart pulls the full result corpus from a peer and merges it into
// the local store.
func warmStart(ctx context.Context, st *inca.ResultStore, from string, logger interface {
	Info(msg string, args ...any)
}) error {
	c, err := client.New(from, client.Options{})
	if err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	corpus, err := c.StoreExport(pctx)
	if err != nil {
		return err
	}
	res, err := st.Import(bytes.NewReader(corpus))
	if err != nil {
		return err
	}
	logger.Info("warm start complete", "from", from,
		"added", res.Added, "skipped", res.Skipped, "rejected", res.Rejected)
	return nil
}
