package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/wal"
)

// stripCost removes the spliced `"cost":{...}` member from a response
// body, reconstructing what the non-opted rendering must have been.
func stripCost(t *testing.T, body []byte) []byte {
	t.Helper()
	idx := bytes.LastIndex(body, []byte(`,"cost":{`))
	if idx < 0 {
		t.Fatalf("body carries no cost block: %s", body)
	}
	out := append([]byte(nil), body[:idx]...)
	return append(out, '}', '\n')
}

// costBlock extracts the spliced summary.
func costBlock(t *testing.T, body []byte) cost.Summary {
	t.Helper()
	var probe struct {
		Cost *cost.Summary `json:"cost"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatalf("decoding cost body: %v\n%s", err, body)
	}
	if probe.Cost == nil {
		t.Fatalf("no cost block in body: %s", body)
	}
	return *probe.Cost
}

// TestCostBlockByteIdentity is the cost plane's core contract: the body
// with ?cost=1 minus the spliced block is byte-identical to the body
// without the flag, on /v1/simulate and /v1/sweep alike, and the block
// itself reconciles exactly with the response's simulation rows.
func TestCostBlockByteIdentity(t *testing.T) {
	t.Parallel()
	// Two servers with identical options: the cache state a request sees
	// must match, or the bodies legitimately differ in the cached fields.
	_, tsPlain := newTestServer(t, Options{})
	_, tsCost := newTestServer(t, Options{})

	sweepBody := `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference"]}`
	plain := readAll(t, post(t, tsPlain.URL+"/v1/sweep", sweepBody, nil))
	withCost := readAll(t, post(t, tsCost.URL+"/v1/sweep?cost=1", sweepBody, nil))
	if !bytes.Equal(stripCost(t, withCost), plain) {
		t.Fatalf("sweep body with cost stripped differs:\n%s\nvs\n%s", stripCost(t, withCost), plain)
	}

	var resp SweepResponse
	if err := json.Unmarshal(plain, &resp); err != nil {
		t.Fatal(err)
	}
	sum := costBlock(t, withCost)
	if sum.Cells != int64(len(resp.Cells)) {
		t.Fatalf("cost cells = %d, response has %d", sum.Cells, len(resp.Cells))
	}
	var wantEnergy, wantLatency float64
	for _, c := range resp.Cells {
		wantEnergy += c.EnergyJ
		wantLatency += c.LatencyS
	}
	if sum.SimEnergyJ != wantEnergy || sum.SimLatencyS != wantLatency {
		t.Fatalf("cost energy/latency = %g/%g, response rows sum to %g/%g",
			sum.SimEnergyJ, sum.SimLatencyS, wantEnergy, wantLatency)
	}
	if sum.WallS <= 0 || sum.Attempts < sum.Cells-sum.CachedCells {
		t.Fatalf("implausible cost block: %+v", sum)
	}

	// /v1/simulate: the report's stable custom encoding splices too.
	// Both servers now hold this cell cached from the sweep above, so the
	// two bodies see the same cache state again.
	simBody := `{"arch":"inca","model":"LeNet5","phase":"inference"}`
	plainSim := readAll(t, post(t, tsPlain.URL+"/v1/simulate", simBody, nil))
	hdr := http.Header{}
	hdr.Set(costHeader, "1") // the header opt-in must work like ?cost=1
	withCostSim := readAll(t, post(t, tsCost.URL+"/v1/simulate", simBody, hdr))
	if !bytes.Equal(stripCost(t, withCostSim), plainSim) {
		t.Fatal("simulate body with cost stripped differs from the plain body")
	}
	if sum := costBlock(t, withCostSim); sum.Cells != 1 || sum.FailedCells != 0 {
		t.Fatalf("simulate cost block = %+v, want exactly one clean cell", sum)
	}
}

// TestUsageRollupMatchesPerRequestCosts pins the ledger invariant: the
// /v1/usage totals equal the sum of the cost blocks individual callers
// received, and the model×dataflow rows partition the cell count.
func TestUsageRollupMatchesPerRequestCosts(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})

	var total cost.Summary
	bodies := []string{
		`{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference"]}`,
		`{"dataflows":["is","ws"],"models":["LeNet5"],"phases":["inference"]}`,
	}
	for _, b := range bodies {
		raw := readAll(t, post(t, ts.URL+"/v1/sweep?cost=1", b, nil))
		total.Add(costBlock(t, raw))
	}

	// The middleware folds a request's summary into the ledger after the
	// response is written, so poll briefly for the books to close.
	var usage UsageResponse
	waitFor(t, func() bool {
		usage = UsageResponse{}
		getJSON(t, ts.URL+"/v1/usage", &usage)
		return usage.Totals.Cells >= total.Cells
	})
	if usage.Totals.Cells != total.Cells || usage.Totals.CachedCells != total.CachedCells {
		t.Fatalf("usage cells %d/%d, per-request sums %d/%d",
			usage.Totals.Cells, usage.Totals.CachedCells, total.Cells, total.CachedCells)
	}
	if math.Abs(usage.Totals.SimEnergyJ-total.SimEnergyJ) > 1e-9 {
		t.Fatalf("usage energy %g, per-request sum %g", usage.Totals.SimEnergyJ, total.SimEnergyJ)
	}
	if usage.Requests < int64(len(bodies)) {
		t.Fatalf("usage requests = %d, want >= %d", usage.Requests, len(bodies))
	}

	// Rows partition the cells and name the dataflow axes.
	var rowCells int64
	var rowEnergy float64
	seen := map[string]bool{}
	for _, row := range usage.Rows {
		rowCells += row.Cells
		rowEnergy += row.SimEnergyJ
		seen[row.Dataflow] = true
	}
	if rowCells != usage.Totals.Cells {
		t.Fatalf("rows sum to %d cells, totals say %d", rowCells, usage.Totals.Cells)
	}
	if math.Abs(rowEnergy-usage.Totals.SimEnergyJ) > 1e-9 {
		t.Fatalf("rows sum to %g J, totals say %g", rowEnergy, usage.Totals.SimEnergyJ)
	}
	for _, want := range []string{"is", "ws"} {
		if !seen[want] {
			t.Fatalf("usage rows missing dataflow %q: %+v", want, usage.Rows)
		}
	}
}

// TestCostCoalescedJoiner pins the coalescing interaction: a joiner that
// replays a leader's recording is charged a coalesced hit, not the
// leader's cells, and a cost-opted caller never shares a flight with a
// non-opted one (the flag is part of the coalesce key).
func TestCostCoalesceKeySeparation(t *testing.T) {
	t.Parallel()
	r1, _ := http.NewRequest(http.MethodPost, "/v1/sweep", nil)
	r2, _ := http.NewRequest(http.MethodPost, "/v1/sweep?cost=1", nil)
	body := map[string]any{"models": []string{"LeNet5"}}
	k1, ok1 := coalesceKey(r1, body)
	k2, ok2 := coalesceKey(r2, body)
	if !ok1 || !ok2 {
		t.Fatal("coalesce keys not derivable")
	}
	if k1 == k2 {
		t.Fatalf("cost-opted and plain requests share coalesce key %q", k1)
	}
}

// TestJobCostJournaledAcrossRestart pins job cost durability: a
// succeeded job's ?cost=1 snapshot carries the executor's summary, the
// plain snapshot stays byte-identical, and a manager reopened over the
// same journal still serves the summary.
func TestJobCostJournaledAcrossRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	jm := newJobManager(t, dir, job.Options{Runners: 1})
	_, ts := newTestServer(t, Options{Jobs: jm})

	body := `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference"]}`
	var snap job.Snapshot
	if err := json.Unmarshal(readAll(t, post(t, ts.URL+"/v1/jobs", body, nil)), &snap); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, ts.URL, snap.ID)
	if final.State != job.StateSucceeded {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}

	plain := readAll(t, get(t, ts.URL+"/v1/jobs/"+snap.ID, nil))
	var withCost []byte
	// The executor journals the summary in a defer racing the terminal
	// state; poll until the cost block appears.
	waitFor(t, func() bool {
		withCost = readAll(t, get(t, ts.URL+"/v1/jobs/"+snap.ID+"?cost=1", nil))
		return bytes.Contains(withCost, []byte(`"cost":{`))
	})
	if !bytes.Equal(stripCost(t, withCost), plain) {
		t.Fatalf("job snapshot with cost stripped differs:\n%s\nvs\n%s", withCost, plain)
	}
	sum := costBlock(t, withCost)
	if sum.Cells != 2 || sum.FailedCells != 0 {
		t.Fatalf("job cost = %+v, want 2 clean cells", sum)
	}

	// Restart: a new manager over the same journal replays the summary.
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	jm2 := newJobManager(t, dir, job.Options{Runners: 1})
	_, ts2 := newTestServer(t, Options{Jobs: jm2})
	replayed := readAll(t, get(t, ts2.URL+"/v1/jobs/"+snap.ID+"?cost=1", nil))
	if got := costBlock(t, replayed); got != sum {
		t.Fatalf("replayed cost %+v differs from journaled %+v", got, sum)
	}
}

// TestJobCostReplaysOlderBlob pins journal compatibility: a cost blob
// journaled by an older release, still carrying the process-wide fields
// (cpu_s, kernel_*) and the per-request cache counters since removed,
// replays, and GET /v1/jobs/{id}?cost=1 serves it without those keys.
func TestJobCostReplaysOlderBlob(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := `{"archs":["inca"],"models":["LeNet5"],"phases":["inference"]}`
	id := job.DeriveID([]byte(spec))
	blob := `{"wall_s":0.5,"cpu_s":0.25,"cells":2,"cached_cells":1,"failed_cells":0,` +
		`"attempts":1,"retries":0,"cache_hits":1,"cache_misses":1,"cache_disk_hits":0,` +
		`"cache_expired":0,"coalesced_hits":0,"kernel_invocations":7,"kernel_chunks":9,` +
		`"sim_energy_j":0.125,"sim_latency_s":0.0625}`
	// The job journal as an older release wrote it: an INCAJNL1 wal log
	// of JSON records.
	jnl, err := wal.Create(filepath.Join(dir, "journal.log"), "INCAJNL1")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []map[string]any{
		{"op": "submit", "id": id, "spec": spec, "created_unix_nano": 1},
		{"op": "run", "id": id, "attempt": 1},
		{"op": "cost", "id": id, "cost": blob},
		{"op": "done", "id": id, "state": "succeeded", "body": "{}\n"},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jnl.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Jobs: newJobManager(t, dir, job.Options{Runners: 1})})
	raw := readAll(t, get(t, ts.URL+"/v1/jobs/"+id+"?cost=1", nil))
	for _, gone := range []string{"cpu_s", "cache_hits", "cache_misses", "kernel_"} {
		if bytes.Contains(raw, []byte(gone)) {
			t.Errorf("replayed cost block still carries %q: %s", gone, raw)
		}
	}
	want := cost.Summary{WallS: 0.5, CellCounts: cost.CellCounts{
		Cells: 2, CachedCells: 1, Attempts: 1, SimEnergyJ: 0.125, SimLatencyS: 0.0625,
	}}
	if got := costBlock(t, raw); got != want {
		t.Fatalf("replayed cost %+v, want %+v", got, want)
	}
}

// TestCostMatchesProcessCounters pins the one-count-per-event rule: a
// request's cost block and the process counters on /metrics are two
// views of the same events. On a fresh server, a cold and then a warm
// sweep each move the memo cache's hits+disk_hits by the block's
// cached_cells and its misses by the cells it did not find cached; the
// latency histogram's count is both the sum of its buckets and the
// number of responses by status class.
func TestCostMatchesProcessCounters(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	metrics := func() Snapshot {
		var snap Snapshot
		// Finished requests are observed after their response is
		// written; wait until every request but this one has been.
		waitFor(t, func() bool {
			snap = Snapshot{}
			getJSON(t, ts.URL+"/metrics", &snap)
			return snap.Latency.Count == snap.Requests-1
		})
		return snap
	}
	body := `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference","training"]}`
	for _, pass := range []string{"cold", "warm"} {
		before := metrics()
		sum := costBlock(t, readAll(t, post(t, ts.URL+"/v1/sweep?cost=1", body, nil)))
		after := metrics()
		served := (after.Cache.Hits + after.Cache.DiskHits) - (before.Cache.Hits + before.Cache.DiskHits)
		if sum.Cells != 4 || sum.CachedCells != served {
			t.Errorf("%s: cost cells %d, cached_cells %d; cache hits+disk_hits moved by %d",
				pass, sum.Cells, sum.CachedCells, served)
		}
		if ran := after.Cache.Misses - before.Cache.Misses; sum.Cells-sum.CachedCells != ran {
			t.Errorf("%s: cost cells-cached_cells = %d; cache misses moved by %d",
				pass, sum.Cells-sum.CachedCells, ran)
		}
		if pass == "warm" && sum.CachedCells != sum.Cells {
			t.Errorf("warm pass: %d of %d cells cached", sum.CachedCells, sum.Cells)
		}

		var buckets int64
		for _, c := range after.Latency.Counts {
			buckets += c
		}
		responses := after.Status2xx + after.Status4xx + after.Status5xx
		if after.Latency.Count != buckets || after.Latency.Count != responses {
			t.Errorf("%s: latency count %d, bucket sum %d, responses %d",
				pass, after.Latency.Count, buckets, responses)
		}
	}
}

// TestTraceIndexEndpoint pins the discovery surface: recent traces list
// newest-first with root/span-count/duration summaries, ?limit= caps
// the rows, and a malformed limit answers 400.
func TestTraceIndexEndpoint(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer(obs.WithRing(256))
	_, ts := newTestServer(t, Options{Tracer: tr})

	first := post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil)
	readAll(t, first)
	second := post(t, ts.URL+"/v1/simulate", `{"arch":"baseline","model":"LeNet5","phase":"inference"}`, nil)
	readAll(t, second)
	firstID := first.Header.Get(traceIDHeader)
	secondID := second.Header.Get(traceIDHeader)

	var idx TraceIndexResponse
	getJSON(t, ts.URL+"/v1/trace", &idx)
	if len(idx.Traces) < 2 {
		t.Fatalf("index has %d traces, want >= 2", len(idx.Traces))
	}
	pos := map[string]int{}
	for i, info := range idx.Traces {
		pos[info.TraceID] = i
		if info.Spans < 1 || info.Root == "" {
			t.Fatalf("degenerate index row: %+v", info)
		}
		if info.TraceID == firstID && info.Status != "ok" {
			t.Fatalf("clean trace classified %q", info.Status)
		}
	}
	p1, ok1 := pos[firstID]
	p2, ok2 := pos[secondID]
	if !ok1 || !ok2 {
		t.Fatalf("index missing request traces %s/%s: %+v", firstID, secondID, idx.Traces)
	}
	if p2 > p1 {
		t.Fatalf("newest trace listed at %d, older at %d — want newest first", p2, p1)
	}

	var capped TraceIndexResponse
	getJSON(t, ts.URL+"/v1/trace?limit=1", &capped)
	if len(capped.Traces) != 1 {
		t.Fatalf("limit=1 returned %d rows", len(capped.Traces))
	}
	if resp := get(t, ts.URL+"/v1/trace?limit=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=0 answered %d, want 400", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
	if resp := get(t, ts.URL+"/v1/trace?limit=zap", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=zap answered %d, want 400", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
}

// TestShardTraceEndpoint pins the federation protocol's unit exchange:
// known traces answer with raw spans, unknown traces answer 200 with an
// empty list (not 404), and a tracing-disabled node answers 404.
func TestShardTraceEndpoint(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer(obs.WithRing(64))
	_, ts := newTestServer(t, Options{Tracer: tr, ShardID: "s1"})
	resp := post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil)
	readAll(t, resp)
	traceID := resp.Header.Get(traceIDHeader)

	var str ShardTraceResponse
	getJSON(t, ts.URL+"/v1/shard/trace/"+traceID, &str)
	if str.ShardID != "s1" || len(str.Spans) == 0 {
		t.Fatalf("shard trace = %+v", str)
	}
	var empty ShardTraceResponse
	r2 := getJSON(t, ts.URL+"/v1/shard/trace/ffffffffffffffffffffffffffffffff", &empty)
	if r2.StatusCode != http.StatusOK || empty.Spans == nil || len(empty.Spans) != 0 {
		t.Fatalf("unknown shard trace: %d %+v, want 200 with empty list", r2.StatusCode, empty)
	}

	_, off := newTestServer(t, Options{})
	if resp := get(t, off.URL+"/v1/shard/trace/abc", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced shard trace answered %d, want 404", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
}

// TestLivenessBuildInfo pins the liveness contract: the default body is
// exactly "ok\n" (probes compare bytes), the version rides the
// X-Inca-Version header, and ?format=json serves the build block.
func TestLivenessBuildInfo(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	resp := get(t, ts.URL+"/healthz", nil)
	if body := string(readAll(t, resp)); body != "ok\n" {
		t.Fatalf("liveness body %q, want exactly %q", body, "ok\n")
	}
	if resp.Header.Get("X-Inca-Version") == "" {
		t.Fatal("liveness missing X-Inca-Version header")
	}
	var live struct {
		Status string    `json:"status"`
		Build  BuildInfo `json:"build"`
	}
	getJSON(t, ts.URL+"/healthz/live?format=json", &live)
	if live.Status != "ok" || live.Build.Go == "" || live.Build.Version == "" {
		t.Fatalf("liveness JSON = %+v", live)
	}
	if len(live.Build.Dataflows) == 0 {
		t.Fatal("build info lists no dataflow backends")
	}
}

// fakeClock is a settable clock for the SLO tracker.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// TestSLOBurnRateTracker pins the burn-rate math on a fake clock: clean
// traffic is "ok", a 5xx burst past 14x the budget flips the fast
// window degraded, and sliding past the short window clears it.
func TestSLOBurnRateTracker(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	tr := newSLOTracker(SLOOptions{TargetP99: 100 * time.Millisecond, ErrorBudget: 0.01}, clk.now)

	for i := 0; i < 1000; i++ {
		tr.observe(200, 10*time.Millisecond)
	}
	if st := tr.stats(); st.Status != "ok" || st.Fast.ErrorBurn != 0 {
		t.Fatalf("clean traffic: %+v", st)
	}

	// 200 errors on 1200 requests = 16.7% error rate = burn ~16.7 over a
	// 1% budget: a fast burn.
	for i := 0; i < 200; i++ {
		tr.observe(500, 10*time.Millisecond)
	}
	st := tr.stats()
	if st.Status != "degraded" || st.Fast.ErrorBurn < sloFastBurn {
		t.Fatalf("error burst not degraded: %+v", st)
	}

	// Slow requests burn the latency budget independently.
	clk2 := &fakeClock{t: time.Unix(2_000_000, 0)}
	lat := newSLOTracker(SLOOptions{TargetP99: 50 * time.Millisecond}, clk2.now)
	for i := 0; i < 100; i++ {
		lat.observe(200, time.Second) // 100% slow over a 1% budget: burn 100
	}
	if st := lat.stats(); st.Status != "degraded" || st.Fast.LatencyBurn < sloFastBurn {
		t.Fatalf("latency burn not degraded: %+v", st)
	}

	// The window slides: an hour later both windows are empty again.
	clk.t = clk.t.Add(sloLongWindow + sloBucket)
	if st := tr.stats(); st.Status != "ok" || st.Fast.Requests != 0 || st.Slow.Requests != 0 {
		t.Fatalf("windows did not slide clean: %+v", st)
	}
}

// TestSLOReadinessAndMetrics pins the HTTP surface: with objectives
// configured readiness serves the structured body including the SLO
// verdict (degraded stays 200), and the burn-rate gauges ride the
// Prometheus exposition.
func TestSLOReadinessAndMetrics(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{t: time.Unix(3_000_000, 0)}
	s, ts := newTestServer(t, Options{
		SLO:    SLOOptions{TargetP99: 5 * time.Second, ErrorBudget: 0.01},
		sloNow: clk.now,
	})

	readAll(t, get(t, ts.URL+"/healthz/ready", nil))
	var ready readinessResponse
	resp := getJSON(t, ts.URL+"/healthz/ready", &ready)
	if resp.StatusCode != http.StatusOK || ready.Status != "ready" || ready.SLO == nil {
		t.Fatalf("readiness = %d %+v", resp.StatusCode, ready)
	}

	// Burn the error budget hard: direct observes (the tracker is the
	// unit under test; HTTP 5xxs are produced the same way).
	for i := 0; i < 100; i++ {
		s.slo.observe(500, time.Millisecond)
	}
	ready = readinessResponse{}
	resp = getJSON(t, ts.URL+"/healthz/ready", &ready)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded readiness answered %d, want 200", resp.StatusCode)
	}
	if ready.Status != "degraded" || ready.SLO == nil || ready.SLO.Status != "degraded" {
		t.Fatalf("degraded not visible: %+v", ready)
	}

	text := string(readAll(t, get(t, ts.URL+"/metrics?format=prometheus", nil)))
	for _, want := range []string{
		"inca_slo_objective_p99_seconds 5",
		`inca_slo_error_burn_rate{window="5m"}`,
		`inca_slo_latency_burn_rate{window="1h"}`,
		"inca_slo_degraded 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// promSample matches one exposition sample line:
// name{label="value",...} number
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?(?:[0-9]*\.)?[0-9]+(?:[eE][+-]?[0-9]+)?)$`)

// TestPrometheusExpositionConformance is the strict text-format check
// over every server shape: each family declares # HELP then # TYPE
// exactly once before its samples, sample names extend their family
// only with histogram suffixes, label values are well-formed, and no
// family is declared twice.
func TestPrometheusExpositionConformance(t *testing.T) {
	t.Parallel()
	shapes := map[string]Options{
		"plain": {},
		"traced+slo": {
			Tracer: obs.NewTracer(obs.WithRing(64)),
			SLO:    SLOOptions{TargetP99: time.Second, ErrorBudget: 0.01},
		},
		"shard": {ShardID: "s1"},
	}
	for name, opt := range shapes {
		t.Run(name, func(t *testing.T) {
			jm := newJobManager(t, "", job.Options{Runners: 1})
			opt.Jobs = jm
			_, ts := newTestServer(t, opt)
			// Traffic: a success, an error, and cost attribution.
			readAll(t, post(t, ts.URL+"/v1/sweep?cost=1",
				`{"dataflows":["is"],"models":["LeNet5"],"phases":["inference"]}`, nil))
			readAll(t, post(t, ts.URL+"/v1/simulate", `{"arch":"nope","model":"LeNet5","phase":"inference"}`, nil))

			// The cost ledger folds after the response is written — wait for
			// the labeled model row to land before freezing the page.
			var text string
			waitFor(t, func() bool {
				text = string(readAll(t, get(t, ts.URL+"/metrics?format=prometheus", nil)))
				return strings.Contains(text, `inca_cost_model_cells_total{model="LeNet5",dataflow="is"}`)
			})
			checkPrometheusText(t, text)
			for _, want := range []string{
				"inca_cost_cells_total", "inca_cost_sim_energy_joules_total",
				"inca_build_info", "inca_uptime_seconds",
				"inca_trace_ring_evicted_total",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("%s exposition missing %q", name, want)
				}
			}
		})
	}
}

// checkPrometheusText validates the HELP/TYPE/sample grammar of one
// exposition page.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition does not end in a newline")
	}
	declared := map[string]string{} // family -> type
	var lastFamily, pendingHelp string
	samples := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if _, dup := declared[name]; dup {
				t.Fatalf("line %d: family %s declared twice", ln+1, name)
			}
			pendingHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if pendingHelp != name {
				t.Fatalf("line %d: TYPE %s not preceded by its HELP (pending %q)", ln+1, name, pendingHelp)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			declared[name], lastFamily, pendingHelp = typ, name, ""
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name := m[1]
			base := name
			if typ := declared[lastFamily]; typ == "histogram" {
				base = strings.TrimSuffix(base, "_bucket")
				base = strings.TrimSuffix(base, "_sum")
				base = strings.TrimSuffix(base, "_count")
			}
			if base != lastFamily {
				t.Fatalf("line %d: sample %s outside its declared family %s", ln+1, name, lastFamily)
			}
			if m[2] != "" {
				// Labels: each is key="value" with any quotes/backslashes in
				// the value escaped.
				inner := strings.TrimSuffix(strings.TrimPrefix(m[2], "{"), "}")
				for _, pair := range splitLabels(inner) {
					k, v, ok := strings.Cut(pair, "=")
					if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
						t.Fatalf("line %d: malformed label %q", ln+1, pair)
					}
					raw := v[1 : len(v)-1]
					for i := 0; i < len(raw); i++ {
						if raw[i] == '"' && (i == 0 || raw[i-1] != '\\') {
							t.Fatalf("line %d: unescaped quote in label value %q", ln+1, raw)
						}
					}
				}
			}
			if samples[line[:len(line)-len(m[3])]] {
				t.Fatalf("line %d: duplicate series %q", ln+1, line)
			}
			samples[line[:len(line)-len(m[3])]] = true
		}
	}
	if len(declared) == 0 {
		t.Fatal("no families declared")
	}
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			cur.WriteByte(c)
			i++
			cur.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// TestEscapeLabel pins Prometheus label escaping for the build-info and
// model-row label values.
func TestEscapeLabel(t *testing.T) {
	t.Parallel()
	got := escapeLabel("a\"b\\c\nd")
	want := `a\"b\\c\nd`
	if got != want {
		t.Fatalf("escapeLabel = %q, want %q", got, want)
	}
	if escapeLabel("plain") != "plain" {
		t.Fatal("plain labels must pass through")
	}
}
