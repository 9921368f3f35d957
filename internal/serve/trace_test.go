package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tensor"
)

// get sends a GET with optional headers and returns the response.
func get(t *testing.T, url string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTracedSimulateEndToEnd is the tentpole acceptance run: a POST
// /v1/simulate against a tracing server (JSONL sink attached, 30%
// faults injected at the sweep cells, retries armed) yields exactly one
// trace whose root serve/request span bounds every descendant, whose
// sweep/cell span carries cache and attempt attributes, and whose
// sim/layer leaves reconcile with the report; the same trace is
// retrievable via GET /v1/trace/{id} and was written to the JSONL sink.
func TestTracedSimulateEndToEnd(t *testing.T) {
	var jsonl bytes.Buffer
	sink := obs.NewJSONLWriter(&jsonl)
	tr := obs.NewTracer(obs.WithRing(1024), obs.WithSink(sink))
	inj := fault.New(99)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindError, Prob: 0.3})
	_, ts := newTestServer(t, Options{
		Tracer: tr,
		Inject: inj,
		SweepRetry: sweep.RetryPolicy{
			MaxAttempts: 30,
			BaseDelay:   50 * time.Microsecond,
			MaxDelay:    500 * time.Microsecond,
			Seed:        99,
		},
	})

	resp := post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(traceIDHeader)
	if traceID == "" {
		t.Fatal("traced response missing X-Trace-Id")
	}
	if tpTrace, _, ok := obs.ParseTraceparent(resp.Header.Get(traceparentHeader)); !ok || tpTrace != traceID {
		t.Fatalf("response traceparent %q does not carry trace %s", resp.Header.Get(traceparentHeader), traceID)
	}

	spans := tr.Ring().Trace(traceID)
	byID := make(map[string]obs.SpanData, len(spans))
	var root *obs.SpanData
	names := map[string]int{}
	for i := range spans {
		byID[spans[i].SpanID] = spans[i]
		names[spans[i].Name]++
		if spans[i].Name == SpanRequest {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no %s root span in trace; got %v", SpanRequest, names)
	}
	if root.ParentID != "" {
		t.Fatalf("root span has parent %q", root.ParentID)
	}
	for _, want := range []string{SpanRequest, sweep.SpanCell, sweep.SpanAttempt, "sim/simulate", "sim/layer"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %s spans; got %v", want, names)
		}
	}
	if names[SpanRequest] != 1 {
		t.Fatalf("one request must yield one root span, got %d", names[SpanRequest])
	}

	// Every span belongs to this single trace, links to a parent within
	// it, and nests inside the root's time bounds; sibling (leaf) span
	// durations never sum past their parent's.
	durByParent := map[string]time.Duration{}
	for _, sd := range spans {
		if sd.TraceID != traceID {
			t.Fatalf("span %s carries trace %s", sd.Name, sd.TraceID)
		}
		if sd.SpanID == root.SpanID {
			continue
		}
		if _, ok := byID[sd.ParentID]; !ok {
			t.Fatalf("span %s has dangling parent %q", sd.Name, sd.ParentID)
		}
		if sd.Start.Before(root.Start) || sd.End.After(root.End) {
			t.Errorf("span %s [%v, %v] escapes root [%v, %v]", sd.Name, sd.Start, sd.End, root.Start, root.End)
		}
		durByParent[sd.ParentID] += sd.Duration()
	}
	for parentID, sum := range durByParent {
		if parent := byID[parentID]; sum > parent.Duration() {
			t.Errorf("children of %s sum to %v, exceeding the parent's %v", parent.Name, sum, parent.Duration())
		}
	}

	// The sweep/cell span carries the tentpole's attributes. Under 30%
	// faults the attempt count is whatever the seeded schedule produced
	// (>= 1), with exactly that many sweep/attempt children.
	var cell obs.SpanData
	for _, sd := range spans {
		if sd.Name == sweep.SpanCell {
			cell = sd
		}
	}
	attempts, ok := cell.Attr("attempts")
	if !ok {
		t.Fatal("sweep/cell span missing attempts attribute")
	}
	if _, ok := cell.Attr("cached"); !ok {
		t.Fatal("sweep/cell span missing cached attribute")
	}
	if _, ok := cell.Attr("queue_wait_s"); !ok {
		t.Fatal("sweep/cell span missing queue_wait_s attribute")
	}
	if got := int64(names[sweep.SpanAttempt]); got != attempts.(int64) {
		t.Fatalf("%d sweep/attempt spans for attempts=%v", got, attempts)
	}

	// GET /v1/trace/{id} returns the same spans; ?format=text renders
	// the tree.
	resp = get(t, ts.URL+"/v1/trace/"+traceID, nil)
	var tresp TraceResponse
	if err := json.Unmarshal(readAll(t, resp), &tresp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || tresp.TraceID != traceID {
		t.Fatalf("trace fetch: %d %+v", resp.StatusCode, tresp.TraceID)
	}
	// The fetch itself appended a serve/request span for the GET; the
	// POST's spans are a prefix of what the ring now holds for traceID
	// only if the GET started a new trace — which it did (no traceparent
	// sent) — so counts must match exactly.
	if len(tresp.Spans) != len(spans) {
		t.Fatalf("trace endpoint returned %d spans, ring had %d", len(tresp.Spans), len(spans))
	}
	if !strings.Contains(tresp.Tree, SpanRequest) || !strings.Contains(tresp.Tree, "sim/layer") {
		t.Fatalf("rendered tree missing span names:\n%s", tresp.Tree)
	}
	resp = get(t, ts.URL+"/v1/trace/"+traceID+"?format=text", nil)
	if text := string(readAll(t, resp)); !strings.Contains(text, sweep.SpanCell) {
		t.Fatalf("text tree missing sweep/cell:\n%s", text)
	}

	// Unknown trace → 404 with a JSON error.
	resp = get(t, ts.URL+"/v1/trace/ffffffffffffffffffffffffffffffff", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d", resp.StatusCode)
	}
	readAll(t, resp)

	// Every ring span also reached the JSONL sink, one JSON object per
	// line, round-trippable.
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	var lines int
	sc := bufio.NewScanner(bytes.NewReader(jsonl.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var sd obs.SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if sd.TraceID == traceID {
			lines++
		}
	}
	if lines != len(spans) {
		t.Fatalf("JSONL sink has %d spans of the trace, ring has %d", lines, len(spans))
	}
}

// TestTraceparentContinuation pins W3C propagation: a request carrying
// a valid traceparent joins that trace instead of starting a new one.
func TestTraceparentContinuation(t *testing.T) {
	tr := obs.NewTracer(obs.WithRing(256))
	_, ts := newTestServer(t, Options{Tracer: tr})

	const callerTrace = "11111111222222223333333344444444"
	const callerSpan = "aaaaaaaabbbbbbbb"
	h := http.Header{}
	h.Set(traceparentHeader, obs.FormatTraceparent(callerTrace, callerSpan))
	resp := get(t, ts.URL+"/v1/models", h)
	readAll(t, resp)
	if got := resp.Header.Get(traceIDHeader); got != callerTrace {
		t.Fatalf("X-Trace-Id = %q, want caller's trace %q", got, callerTrace)
	}
	spans := tr.Ring().Trace(callerTrace)
	if len(spans) == 0 {
		t.Fatal("no spans joined the caller's trace")
	}
	for _, sd := range spans {
		if sd.Name == SpanRequest && sd.ParentID != callerSpan {
			t.Fatalf("root span parent = %q, want caller span %q", sd.ParentID, callerSpan)
		}
	}

	// A malformed traceparent is ignored: the request gets a fresh trace.
	h.Set(traceparentHeader, "00-not-hex-at-all")
	resp = get(t, ts.URL+"/v1/models", h)
	readAll(t, resp)
	if got := resp.Header.Get(traceIDHeader); got == callerTrace || got == "" {
		t.Fatalf("malformed traceparent should start a fresh trace, got %q", got)
	}
}

// TestErrorBodyCarriesTraceID pins that failed requests quote their
// trace: the JSON error payload's trace_id matches the response header.
func TestErrorBodyCarriesTraceID(t *testing.T) {
	tr := obs.NewTracer(obs.WithRing(64))
	_, ts := newTestServer(t, Options{Tracer: tr})
	resp := post(t, ts.URL+"/v1/simulate", `{"arch":"nope","model":"LeNet5","phase":"inference"}`, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad arch: %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.TraceID == "" || eb.TraceID != resp.Header.Get(traceIDHeader) {
		t.Fatalf("error body trace_id = %q, header %q", eb.TraceID, resp.Header.Get(traceIDHeader))
	}
}

// TestUntracedServerOmitsTraceArtifacts pins the off path: no tracer
// means no trace headers, no trace_id in errors, and 404 from the trace
// endpoint.
func TestUntracedServerOmitsTraceArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/simulate", `{"arch":"nope","model":"LeNet5","phase":"inference"}`, nil)
	body := readAll(t, resp)
	if resp.Header.Get(traceIDHeader) != "" || resp.Header.Get(traceparentHeader) != "" {
		t.Fatal("untraced response carries trace headers")
	}
	if bytes.Contains(body, []byte("trace_id")) {
		t.Fatalf("untraced error body mentions trace_id: %s", body)
	}
	resp = get(t, ts.URL+"/v1/trace/deadbeef", nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint without tracer: %d, want 404", resp.StatusCode)
	}
}

// TestPprofGating pins that /debug/pprof is absent by default and
// served when EnablePprof is set.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Options{})
	resp := get(t, off.URL+"/debug/pprof/", nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Options{EnablePprof: true})
	resp = get(t, on.URL+"/debug/pprof/", nil)
	if body := string(readAll(t, resp)); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof on: %d %q", resp.StatusCode, body)
	}
	resp = get(t, on.URL+"/debug/pprof/goroutine?debug=1", nil)
	if body := string(readAll(t, resp)); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("goroutine profile: %d %q", resp.StatusCode, body)
	}
}

// TestMetricsPrometheusExposition pins the text format: negotiated by
// Accept or ?format=prometheus, histogram buckets cumulative, runtime
// and kernel gauges present.
func TestMetricsPrometheusExposition(t *testing.T) {
	hook := &tensor.KernelStats{}
	prev := tensor.SetStatsHook(hook)
	defer tensor.SetStatsHook(prev)

	tr := obs.NewTracer(obs.WithRing(64))
	_, ts := newTestServer(t, Options{Tracer: tr})
	// Generate one real exchange so counters are non-zero, and one kernel
	// invocation so the stats hook has something to report (the analytical
	// simulator itself does not run tensor kernels).
	readAll(t, post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil))
	tensor.ParallelChunks(4, func(_, lo, hi int) {})

	resp := get(t, ts.URL+"/metrics?format=prometheus", nil)
	text := string(readAll(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE inca_http_requests_total counter",
		"# TYPE inca_http_request_duration_seconds histogram",
		`inca_http_request_duration_seconds_bucket{le="+Inf"}`,
		"inca_runtime_goroutines",
		"inca_runtime_heap_alloc_bytes",
		"inca_runtime_gc_pause_seconds_total",
		"inca_kernel_invocations_total",
		"inca_trace_spans",
		`inca_http_responses_total{class="2xx"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// Buckets are cumulative: each le line's value must be >= the
	// previous one, ending at the series count.
	var prevCum int64 = -1
	var last int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "inca_http_request_duration_seconds_bucket") {
			var v int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if v < prevCum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			prevCum, last = v, v
		}
	}
	if !strings.Contains(text, fmt.Sprintf("inca_http_request_duration_seconds_count %d", last)) {
		t.Fatalf("+Inf bucket %d does not match series count", last)
	}

	// Accept negotiation reaches the same format; default stays JSON.
	resp = get(t, ts.URL+"/metrics", http.Header{"Accept": []string{"text/plain"}})
	if body := string(readAll(t, resp)); !strings.Contains(body, "inca_http_requests_total") {
		t.Fatal("Accept: text/plain did not negotiate prometheus output")
	}
	resp = get(t, ts.URL+"/metrics", nil)
	var snap Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if snap.Runtime.Goroutines <= 0 {
		t.Fatal("JSON snapshot missing runtime gauges")
	}
	if snap.Kernels.Invocations == 0 {
		t.Fatal("JSON snapshot missing kernel stats despite installed hook")
	}
	if snap.TraceSpansTotal == 0 {
		t.Fatal("JSON snapshot missing trace ring stats")
	}
}

// TestLatencyHistogramBins pins the histogram's fixed bounds: the
// snapshot reports them with one +Inf overflow count, the count is the
// buckets' sum, and observations bin against the bounds.
func TestLatencyHistogramBins(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	readAll(t, get(t, ts.URL+"/healthz", nil))
	snap := s.snapshot()
	if len(snap.Latency.BoundsS) != len(latencyBounds) || snap.Latency.BoundsS[11] != 2.5 {
		t.Fatalf("bounds = %v, want %v", snap.Latency.BoundsS, latencyBounds)
	}
	if len(snap.Latency.Counts) != len(latencyBounds)+1 {
		t.Fatalf("counts length %d, want %d (+Inf)", len(snap.Latency.Counts), len(latencyBounds)+1)
	}
	var total int64
	for _, c := range snap.Latency.Counts {
		total += c
	}
	if total != snap.Latency.Count || total < 1 {
		t.Fatalf("bucket counts sum %d, series count %d", total, snap.Latency.Count)
	}

	// Direct observe: a 2s latency lands in the le=2.5 bucket, a 20s one
	// in +Inf.
	m := &Metrics{}
	m.observe(200, 2*time.Second)
	if m.latencyBkts[11].Load() != 1 {
		t.Fatal("2s observation missed the le=2.5 bucket")
	}
	m.observe(200, 20*time.Second)
	if m.latencyBkts[len(latencyBounds)].Load() != 1 {
		t.Fatal("20s observation missed the +Inf bucket")
	}
}

// TestQueuedGaugeConsistency pins the satellite fix: a request is never
// counted in queued and inflight (or queued and rejected) at once, and
// all gauges return to zero after an abandoned acquire.
func TestQueuedGaugeConsistency(t *testing.T) {
	m := &Metrics{}
	a := newAdmission(1, 1)

	// Fill the only slot.
	if err := a.acquire(t.Context(), m); err != nil {
		t.Fatal(err)
	}
	if m.inflight.Load() != 1 || m.queued.Load() != 0 {
		t.Fatalf("after acquire: inflight=%d queued=%d", m.inflight.Load(), m.queued.Load())
	}

	// Second request queues, then is abandoned by its context: the
	// queued gauge must drop before rejected rises, and end at zero.
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx, m) }()
	waitFor(t, func() bool { return m.queued.Load() == 1 })
	if m.inflight.Load() != 1 {
		t.Fatalf("queued request leaked into inflight: %d", m.inflight.Load())
	}
	cancel()
	if err := <-done; err != errAbandoned {
		t.Fatalf("abandoned acquire: %v", err)
	}
	if q, rej := m.queued.Load(), m.rejected.Load(); q != 0 || rej != 1 {
		t.Fatalf("after abandon: queued=%d rejected=%d", q, rej)
	}

	a.release(m)
	if m.inflight.Load() != 0 || m.queued.Load() != 0 {
		t.Fatalf("after release: inflight=%d queued=%d", m.inflight.Load(), m.queued.Load())
	}
}

// waitFor polls cond until it holds or the test deadline nears.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
