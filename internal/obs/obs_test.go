package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injectable deterministic time source: tests advance
// it explicitly, so span durations are pinned exactly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestTracer(clk *fakeClock) *Tracer {
	return NewTracer(WithClock(clk.Now), WithRing(64), WithIDSeed(1))
}

func TestSpanDurationPinnedByFakeClock(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk)
	ctx, root := tr.Start(context.Background(), "root")
	clk.Advance(250 * time.Millisecond)
	_, child := StartSpan(ctx, "child")
	clk.Advance(100 * time.Millisecond)
	child.End()
	clk.Advance(650 * time.Millisecond)
	root.End()

	spans := tr.Ring().Trace(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ring order is completion order: child first.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if got := spans[0].Duration(); got != 100*time.Millisecond {
		t.Errorf("child duration = %v, want exactly 100ms", got)
	}
	if got := spans[1].Duration(); got != time.Second {
		t.Errorf("root duration = %v, want exactly 1s", got)
	}
	if spans[1].DurationS != 1.0 {
		t.Errorf("root DurationS = %v, want 1.0", spans[1].DurationS)
	}
	// Root bounds the summed children.
	if spans[0].DurationS > spans[1].DurationS {
		t.Errorf("child (%v) exceeds root (%v)", spans[0].DurationS, spans[1].DurationS)
	}
}

func TestSpanParentLinks(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk)
	ctx, root := tr.Start(context.Background(), "root")
	cctx, child := StartSpan(ctx, "child")
	_, leaf := StartSpan(cctx, "leaf")

	if child.TraceID() != root.TraceID() || leaf.TraceID() != root.TraceID() {
		t.Fatal("trace IDs diverged within one trace")
	}
	leaf.End()
	child.End()
	root.End()
	byName := map[string]SpanData{}
	for _, sd := range tr.Ring().Trace(root.TraceID()) {
		byName[sd.Name] = sd
	}
	if byName["root"].ParentID != "" {
		t.Errorf("root has parent %q", byName["root"].ParentID)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Errorf("child parent = %q, want root %q", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["leaf"].ParentID != byName["child"].SpanID {
		t.Errorf("leaf parent = %q, want child %q", byName["leaf"].ParentID, byName["child"].SpanID)
	}
}

func TestStartSpanWithoutParentIsInert(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "orphan")
	if span != nil {
		t.Fatal("StartSpan without a context span must return a nil span")
	}
	if ctx != context.Background() {
		t.Fatal("context must pass through unchanged")
	}
	// All methods on the nil span are no-ops.
	span.SetAttr(String("k", "v"))
	span.Count("c", 1)
	span.Event("e")
	span.EndWith(errors.New("x"))
	span.End()
	if span.TraceID() != "" || span.SpanID() != "" || span.Traceparent() != "" {
		t.Fatal("nil span must render empty identifiers")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.Start(context.Background(), "x")
	if span != nil || ctx != context.Background() {
		t.Fatal("nil tracer must be inert")
	}
	if tr.Ring() != nil {
		t.Fatal("nil tracer ring must be nil")
	}
	if !tr.Now().IsZero() {
		t.Fatal("nil tracer Now must be zero")
	}
}

func TestAttrsEventsCounters(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk)
	_, span := tr.Start(context.Background(), "s", String("init", "yes"))
	span.SetAttr(Int("n", 7), Float64("f", 1.5), Bool("b", true))
	span.SetAttr(Int("n", 9)) // later write wins
	span.Count("hits", 2)
	span.Count("hits", 3)
	clk.Advance(time.Second)
	span.Event("retry", Int("attempt", 2))
	span.End()
	// Post-End mutations are dropped.
	span.SetAttr(String("late", "x"))
	span.Count("hits", 100)
	span.Event("late")

	sd := tr.Ring().Spans()[0]
	if v, _ := sd.Attr("init"); v != "yes" {
		t.Errorf("init = %v", v)
	}
	if v, _ := sd.Attr("n"); v != int64(9) {
		t.Errorf("n = %v (%T), want int64(9)", v, v)
	}
	if v, _ := sd.Attr("f"); v != 1.5 {
		t.Errorf("f = %v", v)
	}
	if v, _ := sd.Attr("b"); v != true {
		t.Errorf("b = %v", v)
	}
	if _, ok := sd.Attr("late"); ok {
		t.Error("post-End attr landed")
	}
	if sd.Counters["hits"] != 5 {
		t.Errorf("hits = %d, want 5", sd.Counters["hits"])
	}
	if len(sd.Events) != 1 || sd.Events[0].Name != "retry" {
		t.Fatalf("events = %+v", sd.Events)
	}
	if got := sd.Events[0].Time.Sub(sd.Start); got != time.Second {
		t.Errorf("event offset = %v, want exactly 1s", got)
	}
}

func TestEndDeliversExactlyOnce(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk)
	_, span := tr.Start(context.Background(), "s")
	span.End()
	span.End()
	span.EndWith(errors.New("again"))
	if n := tr.Ring().Len(); n != 1 {
		t.Fatalf("span delivered %d times, want 1", n)
	}
}

func TestDeterministicIDsWithSeed(t *testing.T) {
	mk := func() (string, string) {
		tr := NewTracer(WithClock(newFakeClock().Now), WithIDSeed(42))
		_, s := tr.Start(context.Background(), "s")
		return s.TraceID(), s.SpanID()
	}
	t1, s1 := mk()
	t2, s2 := mk()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("seeded IDs differ: (%s,%s) vs (%s,%s)", t1, s1, t2, s2)
	}
	if len(t1) != 32 || len(s1) != 16 || !isHex(t1) || !isHex(s1) {
		t.Fatalf("malformed IDs: trace=%q span=%q", t1, s1)
	}
}

func TestRingBounded(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(SpanData{TraceID: "t", SpanID: hex16(uint64(i + 1)), Name: "s"})
	}
	if r.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("ring total = %d, want 10", r.Total())
	}
	spans := r.Spans()
	// Oldest-first: spans 7..10 survive.
	if spans[0].SpanID != hex16(7) || spans[3].SpanID != hex16(10) {
		t.Fatalf("eviction order wrong: first=%s last=%s", spans[0].SpanID, spans[3].SpanID)
	}
	if got := r.Trace("t"); len(got) != 4 {
		t.Fatalf("Trace = %d spans, want 4", len(got))
	}
	if got := r.Trace("missing"); got != nil {
		t.Fatalf("unknown trace = %v, want nil", got)
	}
}

func TestJSONLWriterRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	clk := newFakeClock()
	tr := NewTracer(WithClock(clk.Now), WithSink(NewJSONLWriter(&buf)), WithIDSeed(1))
	ctx, root := tr.Start(context.Background(), "root", String("k", "v"))
	_, child := StartSpan(ctx, "child")
	clk.Advance(30 * time.Millisecond)
	child.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var got SpanData
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if got.Name != "child" || got.TraceID != root.TraceID() || got.DurationS != 0.03 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(WithClock(newFakeClock().Now), WithIDSeed(1))
	_, s := tr.Start(context.Background(), "s")
	tid, sid, ok := ParseTraceparent(s.Traceparent())
	if !ok || tid != s.TraceID() || sid != s.SpanID() {
		t.Fatalf("round trip failed: %q → (%q,%q,%v)", s.Traceparent(), tid, sid, ok)
	}

	bad := []string{
		"",
		"00-abc-def-01",
		"01-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01", // wrong version
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("b", 16) + "-01", // zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.Repeat("G", 32) + "-" + strings.Repeat("b", 16) + "-01", // non-hex
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

// FuzzParseTraceparent feeds arbitrary headers to ParseTraceparent: it
// never panics, and every header it accepts names IDs that survive a
// FormatTraceparent round trip unchanged.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(FormatTraceparent(strings.Repeat("a", 32), strings.Repeat("b", 16)))
	f.Add(" 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00\t")
	f.Add("00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("b", 16) + "-01")
	f.Add("00-abc-def-01")
	f.Add("00-" + strings.Repeat("A", 32) + "-" + strings.Repeat("b", 16) + "-01")
	f.Add("---")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			if tid != "" || sid != "" {
				t.Fatalf("rejected %q but returned (%q, %q)", h, tid, sid)
			}
			return
		}
		tid2, sid2, ok2 := ParseTraceparent(FormatTraceparent(tid, sid))
		if !ok2 || tid2 != tid || sid2 != sid {
			t.Fatalf("%q parsed to (%q, %q); its re-format parsed to (%q, %q, %v)", h, tid, sid, tid2, sid2, ok2)
		}
	})
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	tr := NewTracer(WithClock(newFakeClock().Now), WithRing(8), WithIDSeed(1))
	tid := strings.Repeat("a", 32)
	sid := strings.Repeat("b", 16)
	ctx := WithRemoteParent(context.Background(), tid, sid)
	_, span := tr.Start(ctx, "server")
	if span.TraceID() != tid {
		t.Fatalf("trace ID = %s, want upstream %s", span.TraceID(), tid)
	}
	span.End()
	if sd := tr.Ring().Spans()[0]; sd.ParentID != sid {
		t.Fatalf("parent = %s, want upstream %s", sd.ParentID, sid)
	}
}

func TestDumpRendersTree(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk)
	ctx, root := tr.Start(context.Background(), "http POST /v1/simulate")
	cctx, cell := StartSpan(ctx, "sweep/cell", String("key", "k"))
	_, layer := StartSpan(cctx, "sim/layer", String("layer", "conv1"))
	clk.Advance(time.Millisecond)
	layer.End()
	cell.Count("cache.miss", 1)
	cell.End()
	root.End()

	out := Dump(tr.Ring(), root.TraceID())
	for _, want := range []string{"trace " + root.TraceID(), "http POST /v1/simulate", "  sweep/cell", "    sim/layer", "key=k", "cache.miss=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if Dump(tr.Ring(), "missing") != "" {
		t.Error("unknown trace must dump empty")
	}
	if Dump(nil, "x") != "" {
		t.Error("nil ring must dump empty")
	}
}

func TestConcurrentSpansRaceClean(t *testing.T) {
	tr := NewTracer(WithRing(1024), WithIDSeed(7))
	ctx, root := tr.Start(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, s := StartSpan(ctx, "child")
				s.Count("n", 1)
				s.SetAttr(Int("j", j))
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.Ring().Trace(root.TraceID())
	if len(spans) != 16*50+1 {
		t.Fatalf("got %d spans, want %d", len(spans), 16*50+1)
	}
	seen := make(map[string]bool, len(spans))
	for _, sd := range spans {
		if seen[sd.SpanID] {
			t.Fatalf("duplicate span ID %s", sd.SpanID)
		}
		seen[sd.SpanID] = true
	}
}

// BenchmarkStartSpanDisabled measures the cost instrumented layers pay
// when tracing is off: one context lookup, no allocation.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "noop")
		s.End()
	}
}
