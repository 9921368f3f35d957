package serve

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/suite"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tensor"
)

// latencyBounds are the request-latency histogram's bucket upper bounds
// in seconds; the final implicit bucket is +Inf. Simulations of the
// analytical models run in microseconds-to-milliseconds; sweeps and
// experiments in the hundreds of milliseconds.
var latencyBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics is the server's expvar-style counter set. All fields are
// atomics; Snapshot renders a consistent-enough JSON view for /metrics.
// Each event has one counter: finished requests are counted by the
// latency buckets alone (the histogram count is their sum), and
// coalesced replays by the cache's CoalescedHits.
type Metrics struct {
	start time.Time

	requests atomic.Int64 // HTTP requests received
	rejected atomic.Int64 // 503s from admission (saturated or abandoned)
	inflight atomic.Int64 // requests holding an execution slot
	queued   atomic.Int64 // requests waiting for a slot

	status2xx atomic.Int64
	status4xx atomic.Int64
	status5xx atomic.Int64

	latencySumNS atomic.Int64
	latencyBkts  [len(latencyBounds) + 1]atomic.Int64 // last is +Inf
}

// observe records one completed HTTP exchange.
func (m *Metrics) observe(status int, d time.Duration) {
	switch {
	case status >= 500:
		m.status5xx.Add(1)
	case status >= 400:
		m.status4xx.Add(1)
	default:
		m.status2xx.Add(1)
	}
	m.latencySumNS.Add(int64(d))
	s := d.Seconds()
	b := len(latencyBounds) // +Inf bucket
	for i, bound := range latencyBounds {
		if s <= bound {
			b = i
			break
		}
	}
	m.latencyBkts[b].Add(1)
}

// Histogram is the JSON form of the request-latency histogram:
// cumulative-free per-bucket counts with explicit upper bounds (the last
// count is the +Inf overflow bucket). Count is the sum of Counts.
type Histogram struct {
	BoundsS []float64 `json:"bounds_s"`
	Counts  []int64   `json:"counts"`
	Count   int64     `json:"count"`
	SumS    float64   `json:"sum_s"`
}

// RuntimeStats are the Go runtime gauges /metrics exports: scheduler
// and memory pressure at snapshot time.
type RuntimeStats struct {
	Goroutines   int     `json:"goroutines"`
	HeapAllocB   uint64  `json:"heap_alloc_bytes"`
	HeapSysB     uint64  `json:"heap_sys_bytes"`
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseTotal float64 `json:"gc_pause_total_s"`
	// CPUSeconds is the process's cumulative user+system CPU time
	// (getrusage); 0 off unix.
	CPUSeconds float64 `json:"cpu_seconds_total"`
}

func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:   runtime.NumGoroutine(),
		HeapAllocB:   ms.HeapAlloc,
		HeapSysB:     ms.HeapSys,
		GCCycles:     ms.NumGC,
		GCPauseTotal: time.Duration(ms.PauseTotalNs).Seconds(),
		CPUSeconds:   cpuSeconds(),
	}
}

// BuildInfo identifies the running binary: the module version when the
// binary was built from a tagged module ("dev" otherwise), the Go
// toolchain, and the registered dataflow backends. Served in /metrics
// (JSON and inca_build_info), and by /healthz/live on request.
type BuildInfo struct {
	Version   string   `json:"version"`
	Go        string   `json:"go"`
	Dataflows []string `json:"dataflows"`
}

func buildInfo() BuildInfo {
	v := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		v = bi.Main.Version
	}
	return BuildInfo{Version: v, Go: runtime.Version(), Dataflows: dataflow.IDs()}
}

// CostTotals is the server-lifetime cost ledger in /metrics: how many
// requests/jobs were finalized and the field-by-field sum of their
// cost summaries.
type CostTotals struct {
	Requests int64 `json:"requests"`
	Jobs     int64 `json:"jobs"`
	cost.Summary
}

// Snapshot is the /metrics payload.
type Snapshot struct {
	UptimeS  float64 `json:"uptime_s"`
	Requests int64   `json:"requests_total"`
	Rejected int64   `json:"rejected_total"`
	Inflight int64   `json:"inflight"`
	Queued   int64   `json:"queued"`
	// Coalesced counts whole requests answered from another caller's
	// in-flight execution by the coalescing layer (Cache.CoalescedHits);
	// zero when the layer is disabled.
	Coalesced   int64 `json:"coalesced_total"`
	MaxInflight int   `json:"max_inflight"`
	QueueDepth  int   `json:"queue_depth"`
	Status2xx   int64 `json:"responses_2xx"`
	Status4xx   int64 `json:"responses_4xx"`
	Status5xx   int64 `json:"responses_5xx"`
	// KernelBudget is the process-wide tensor worker budget the server's
	// per-request sweep pools are derived from.
	KernelBudget   int              `json:"kernel_budget"`
	RequestWorkers int              `json:"request_workers"`
	Latency        Histogram        `json:"latency"`
	Cache          sweep.CacheStats `json:"cache"`
	// SuiteCache is the experiment suite's shared process-wide cache,
	// exercised by /v1/experiments.
	SuiteCache sweep.CacheStats `json:"suite_cache"`
	// Store is the persistent result store's counter set; omitted when
	// the server runs memory-only.
	Store *store.Stats `json:"store,omitempty"`
	// Jobs is the async job subsystem's counter set; omitted when the
	// server runs without a job manager.
	Jobs *job.Stats `json:"jobs,omitempty"`
	// BreakerTrips counts the dispatch clients' circuit-breaker trips on
	// a coordinator node; omitted outside cluster mode.
	BreakerTrips *int64 `json:"breaker_trips_total,omitempty"`
	// Runtime is the Go runtime's live state at snapshot time.
	Runtime RuntimeStats `json:"runtime"`
	// Kernels is the process-wide tensor-kernel activity (zeros unless a
	// stats hook is installed — cmd/inca-serve installs one at startup).
	Kernels tensor.StatsSnapshot `json:"kernels"`
	// TraceSpans counts spans retained in / emitted through the tracer's
	// ring; both zero when tracing is disabled. TraceEvicted counts
	// spans the bounded ring dropped to make room — nonzero means
	// GET /v1/trace answers may be missing their oldest spans.
	TraceSpans      int   `json:"trace_spans"`
	TraceSpansTotal int64 `json:"trace_spans_total"`
	TraceEvicted    int64 `json:"trace_spans_evicted_total"`
	// Build identifies the binary (also inca_build_info in the
	// Prometheus rendering).
	Build BuildInfo `json:"build"`
	// Cost is the lifetime sum of per-request/per-job cost summaries
	// (see GET /v1/usage for the per-model attribution rows).
	Cost CostTotals `json:"cost"`
	// SLO carries the burn-rate tracker's windows; omitted unless
	// objectives are configured (-slo-p99 / -slo-err).
	SLO *SLOStats `json:"slo,omitempty"`
	// costRows feeds the labeled inca_cost_model_* Prometheus families
	// without bloating the JSON body (GET /v1/usage serves the rows).
	costRows []UsageRow
}

// snapshot collects every counter. Each field is individually exact; the
// set is read without a global lock, so a snapshot taken mid-request may
// be off by one between related fields.
func (s *Server) snapshot() Snapshot {
	m := s.metrics
	counts := make([]int64, len(m.latencyBkts))
	var count int64
	for i := range m.latencyBkts {
		counts[i] = m.latencyBkts[i].Load()
		count += counts[i]
	}
	cache := s.cache.Stats()
	snap := Snapshot{
		UptimeS:        time.Since(m.start).Seconds(),
		Requests:       m.requests.Load(),
		Rejected:       m.rejected.Load(),
		Inflight:       m.inflight.Load(),
		Queued:         m.queued.Load(),
		Coalesced:      cache.CoalescedHits,
		MaxInflight:    s.opt.MaxInflight,
		QueueDepth:     s.opt.QueueDepth,
		Status2xx:      m.status2xx.Load(),
		Status4xx:      m.status4xx.Load(),
		Status5xx:      m.status5xx.Load(),
		KernelBudget:   tensor.Parallelism(),
		RequestWorkers: s.requestWorkers(),
		Latency: Histogram{
			BoundsS: latencyBounds[:],
			Counts:  counts,
			Count:   count,
			SumS:    time.Duration(m.latencySumNS.Load()).Seconds(),
		},
		Cache:      cache,
		SuiteCache: suite.CacheStats(),
		Runtime:    readRuntimeStats(),
		Kernels:    tensor.StatsHook().Snapshot(),
	}
	if st := s.opt.Store; st != nil {
		stats := st.Stats()
		snap.Store = &stats
	}
	if jm := s.opt.Jobs; jm != nil {
		stats := jm.Stats()
		snap.Jobs = &stats
	}
	if bt, ok := s.opt.Sharder.(interface{ BreakerTrips() int64 }); ok {
		v := bt.BreakerTrips()
		snap.BreakerTrips = &v
	}
	if t := s.opt.Tracer; t != nil {
		if ring := t.Ring(); ring != nil {
			snap.TraceSpans = ring.Len()
			snap.TraceSpansTotal = ring.Total()
			snap.TraceEvicted = ring.Evicted()
		}
	}
	snap.Build = buildInfo()
	usage := s.usage.snapshot()
	snap.Cost = CostTotals{Requests: usage.Requests, Jobs: usage.Jobs, Summary: usage.Totals}
	snap.costRows = usage.Rows
	if s.slo != nil {
		stats := s.slo.stats()
		snap.SLO = &stats
	}
	return snap
}

// escapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges one per line, the latency
// histogram with cumulative buckets as the format requires. Metric names
// follow the inca_http_* / inca_runtime_* convention.
func writePrometheus(w io.Writer, snap Snapshot) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	scalar := func(name, typ, help string, v any) {
		p("# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	scalar("inca_uptime_seconds", "gauge", "Seconds since the server started.", snap.UptimeS)
	scalar("inca_http_requests_total", "counter", "HTTP requests received.", snap.Requests)
	scalar("inca_http_rejected_total", "counter", "Requests rejected by admission (saturated or abandoned).", snap.Rejected)
	scalar("inca_http_inflight", "gauge", "Requests holding an execution slot.", snap.Inflight)
	scalar("inca_http_queued", "gauge", "Requests waiting for an execution slot.", snap.Queued)
	scalar("inca_serve_coalesced_total", "counter", "Requests answered from another caller's in-flight execution.", snap.Coalesced)
	p("# HELP inca_http_responses_total Completed responses by status class.\n# TYPE inca_http_responses_total counter\n")
	p("inca_http_responses_total{class=\"2xx\"} %d\n", snap.Status2xx)
	p("inca_http_responses_total{class=\"4xx\"} %d\n", snap.Status4xx)
	p("inca_http_responses_total{class=\"5xx\"} %d\n", snap.Status5xx)

	p("# HELP inca_http_request_duration_seconds Request latency.\n# TYPE inca_http_request_duration_seconds histogram\n")
	cum := int64(0)
	for i, bound := range snap.Latency.BoundsS {
		cum += snap.Latency.Counts[i]
		p("inca_http_request_duration_seconds_bucket{le=\"%g\"} %d\n", bound, cum)
	}
	p("inca_http_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", snap.Latency.Count)
	p("inca_http_request_duration_seconds_sum %g\n", snap.Latency.SumS)
	p("inca_http_request_duration_seconds_count %d\n", snap.Latency.Count)

	cacheFam := func(prefix string, st sweep.CacheStats) {
		scalar(prefix+"_hits_total", "counter", "Cache hits.", st.Hits)
		scalar(prefix+"_misses_total", "counter", "Cache misses.", st.Misses)
		scalar(prefix+"_disk_hits_total", "counter", "Misses served by the persistent store instead of simulating.", st.DiskHits)
		scalar(prefix+"_expired_total", "counter", "Waiters whose context ended mid-flight.", st.Expired)
		scalar(prefix+"_coalesced_hits_total", "counter", "Whole requests served by the coalescing layer.", st.CoalescedHits)
		scalar(prefix+"_entries", "gauge", "Stored results.", st.Entries)
	}
	cacheFam("inca_cache", snap.Cache)
	cacheFam("inca_suite_cache", snap.SuiteCache)

	if st := snap.Store; st != nil {
		scalar("inca_store_hits_total", "counter", "Store reads that found a live record.", st.Hits)
		scalar("inca_store_misses_total", "counter", "Store reads that found nothing.", st.Misses)
		scalar("inca_store_expired_total", "counter", "Store reads that found only a TTL-expired record.", st.Expired)
		scalar("inca_store_puts_total", "counter", "Records appended to the store.", st.Puts)
		scalar("inca_store_evicted_total", "counter", "Records dropped by size-cap eviction.", st.Evicted)
		scalar("inca_store_compactions_total", "counter", "Segment compactions completed.", st.Compacts)
		scalar("inca_store_torn_records_total", "counter", "Torn or corrupt records truncated at open.", st.TornRecords)
		scalar("inca_store_io_errors_total", "counter", "Disk errors swallowed into miss/no-op degradation.", st.IOErrors)
		scalar("inca_store_entries", "gauge", "Live records in the store index.", st.Entries)
		scalar("inca_store_segments", "gauge", "Segment files backing the store.", st.Segments)
		scalar("inca_store_bytes", "gauge", "Bytes across all segment files.", st.Bytes)
	}

	if jb := snap.Jobs; jb != nil {
		scalar("inca_jobs_queued", "gauge", "Jobs waiting for a runner.", jb.Queued)
		scalar("inca_jobs_running", "gauge", "Jobs executing on the runner pool.", jb.Running)
		scalar("inca_jobs_completed_total", "counter", "Jobs that reached the succeeded state.", jb.Completed)
		scalar("inca_jobs_failed_total", "counter", "Jobs that reached the failed state.", jb.Failed)
		scalar("inca_jobs_cancelled_total", "counter", "Jobs cancelled cooperatively.", jb.Cancelled)
		scalar("inca_jobs_resumed_total", "counter", "Journal-recovered jobs requeued after a restart.", jb.Resumed)
		scalar("inca_jobs_queue_depth", "gauge", "Configured job-queue shedding bound.", jb.QueueDepth)
		scalar("inca_jobs_journal_torn_records_total", "counter", "Torn journal tails truncated at open.", jb.TornRecords)
	}
	if snap.BreakerTrips != nil {
		scalar("inca_client_breaker_trips_total", "counter", "Dispatch-client circuit-breaker trips on this coordinator.", *snap.BreakerTrips)
	}

	scalar("inca_kernel_budget", "gauge", "Process-wide tensor worker budget.", snap.KernelBudget)
	scalar("inca_kernel_invocations_total", "counter", "Parallel-kernel invocations.", snap.Kernels.Invocations)
	scalar("inca_kernel_serial_total", "counter", "Kernel invocations that ran single-chunk.", snap.Kernels.Serial)
	scalar("inca_kernel_chunks_total", "counter", "Work chunks executed by kernels.", snap.Kernels.Chunks)
	scalar("inca_kernel_items_total", "counter", "Work items covered by kernel chunks.", snap.Kernels.Items)

	scalar("inca_runtime_goroutines", "gauge", "Live goroutines.", snap.Runtime.Goroutines)
	scalar("inca_runtime_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", snap.Runtime.HeapAllocB)
	scalar("inca_runtime_heap_sys_bytes", "gauge", "Heap memory obtained from the OS.", snap.Runtime.HeapSysB)
	scalar("inca_runtime_gc_cycles_total", "counter", "Completed GC cycles.", snap.Runtime.GCCycles)
	scalar("inca_runtime_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause.", snap.Runtime.GCPauseTotal)
	scalar("inca_runtime_cpu_seconds_total", "counter", "Process user+system CPU time.", snap.Runtime.CPUSeconds)

	scalar("inca_trace_spans", "gauge", "Spans retained in the trace ring.", snap.TraceSpans)
	scalar("inca_trace_spans_total", "counter", "Spans emitted through the trace ring.", snap.TraceSpansTotal)
	scalar("inca_trace_ring_evicted_total", "counter", "Spans dropped from the bounded trace ring to make room.", snap.TraceEvicted)

	p("# HELP inca_build_info Build metadata; the value is always 1.\n# TYPE inca_build_info gauge\n")
	p("inca_build_info{version=\"%s\",go=\"%s\",dataflows=\"%s\"} 1\n",
		escapeLabel(snap.Build.Version), escapeLabel(snap.Build.Go),
		escapeLabel(strings.Join(snap.Build.Dataflows, ",")))

	scalar("inca_cost_requests_total", "counter", "HTTP requests finalized by the cost accountant.", snap.Cost.Requests)
	scalar("inca_cost_jobs_total", "counter", "Background job executions finalized by the cost accountant.", snap.Cost.Jobs)
	scalar("inca_cost_cells_total", "counter", "Simulation cells attributed across all requests and jobs.", snap.Cost.Cells)
	scalar("inca_cost_cached_cells_total", "counter", "Attributed cells served from cache tiers.", snap.Cost.CachedCells)
	scalar("inca_cost_failed_cells_total", "counter", "Attributed cells that failed evaluation.", snap.Cost.FailedCells)
	scalar("inca_cost_attempts_total", "counter", "Engine evaluation attempts attributed across all requests.", snap.Cost.Attempts)
	scalar("inca_cost_retries_total", "counter", "Evaluation attempts beyond each cell's first.", snap.Cost.Retries)
	scalar("inca_cost_coalesced_hits_total", "counter", "Coalesced replays attributed to joiner requests.", snap.Cost.CoalescedHits)
	scalar("inca_cost_wall_seconds_total", "counter", "Wall-clock seconds summed over attributed requests and jobs.", snap.Cost.WallS)
	scalar("inca_cost_sim_energy_joules_total", "counter", "Modeled accelerator energy summed over attributed cells.", snap.Cost.SimEnergyJ)
	scalar("inca_cost_sim_latency_seconds_total", "counter", "Modeled accelerator latency summed over attributed cells.", snap.Cost.SimLatencyS)

	if len(snap.costRows) > 0 {
		p("# HELP inca_cost_model_cells_total Attributed cells per model and dataflow.\n# TYPE inca_cost_model_cells_total counter\n")
		for _, row := range snap.costRows {
			p("inca_cost_model_cells_total{model=\"%s\",dataflow=\"%s\"} %d\n",
				escapeLabel(row.Model), escapeLabel(row.Dataflow), row.Cells)
		}
		p("# HELP inca_cost_model_sim_energy_joules_total Modeled energy per model and dataflow.\n# TYPE inca_cost_model_sim_energy_joules_total counter\n")
		for _, row := range snap.costRows {
			p("inca_cost_model_sim_energy_joules_total{model=\"%s\",dataflow=\"%s\"} %g\n",
				escapeLabel(row.Model), escapeLabel(row.Dataflow), row.SimEnergyJ)
		}
	}

	if slo := snap.SLO; slo != nil {
		scalar("inca_slo_objective_p99_seconds", "gauge", "Configured p99 latency objective (0 when latency tracking is off).", slo.TargetP99S)
		scalar("inca_slo_objective_error_budget", "gauge", "Configured tolerated 5xx fraction (0 when error tracking is off).", slo.ErrorBudget)
		p("# HELP inca_slo_error_burn_rate Error-budget burn rate per sliding window.\n# TYPE inca_slo_error_burn_rate gauge\n")
		p("inca_slo_error_burn_rate{window=\"5m\"} %g\n", slo.Fast.ErrorBurn)
		p("inca_slo_error_burn_rate{window=\"1h\"} %g\n", slo.Slow.ErrorBurn)
		p("# HELP inca_slo_latency_burn_rate Latency-budget burn rate per sliding window.\n# TYPE inca_slo_latency_burn_rate gauge\n")
		p("inca_slo_latency_burn_rate{window=\"5m\"} %g\n", slo.Fast.LatencyBurn)
		p("inca_slo_latency_burn_rate{window=\"1h\"} %g\n", slo.Slow.LatencyBurn)
		degraded := 0
		if slo.Status == "degraded" {
			degraded = 1
		}
		scalar("inca_slo_degraded", "gauge", "1 while a burn rate exceeds its threshold (fast >= 14 over 5m, sustained >= 1 over 1h).", degraded)
	}
	return err
}
