package sweep

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/sim"
)

// traceClock is a deterministic tracer clock: every reading advances
// exactly one tick, so span timestamps are pinned regardless of
// scheduling.
type traceClock struct {
	mu   sync.Mutex
	now  time.Time
	tick time.Duration
}

func (c *traceClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.tick)
	return c.now
}

func smallPlan() Plan {
	return Plan{
		Archs:    []Arch{INCAArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference},
	}
}

// TestTracedSweepCellSpans pins the sweep layer's span contract under
// injected faults: every cell gets a sweep/cell span whose attempts
// attribute matches the Result, each attempt appears as a sweep/attempt
// child (failed ones carrying the attempt's error), every attempt is one
// cache miss, and queue_wait_s is present and non-negative on the
// deterministic clock.
func TestTracedSweepCellSpans(t *testing.T) {
	clk := &traceClock{now: time.Unix(1000, 0), tick: time.Millisecond}
	tr := obs.NewTracer(obs.WithClock(clk.Now), obs.WithRing(1024), obs.WithIDSeed(7))

	inj := fault.New(11)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindError, Prob: 0.5})

	cache := NewCache()
	ctx, root := tr.Start(context.Background(), "test/sweep")
	results, err := Run(ctx, smallPlan(), Options{
		Workers: 2,
		Cache:   cache,
		Retry:   retryOpts(11),
		Inject:  inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := tr.Ring().Trace(root.TraceID())
	byID := make(map[string]obs.SpanData, len(spans))
	var cellSpans []obs.SpanData
	attemptsByParent := make(map[string][]obs.SpanData)
	for _, sd := range spans {
		byID[sd.SpanID] = sd
		switch sd.Name {
		case SpanCell:
			cellSpans = append(cellSpans, sd)
		case SpanAttempt:
			attemptsByParent[sd.ParentID] = append(attemptsByParent[sd.ParentID], sd)
		}
	}
	if len(cellSpans) != len(results) {
		t.Fatalf("%d sweep/cell spans for %d cells", len(cellSpans), len(results))
	}

	resByKey := make(map[string]Result, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s failed despite retries: %v", r.Cell.Key(), r.Err)
		}
		resByKey[r.Cell.Key()] = r
	}

	sawRetry := false
	var attempts int64
	for _, cs := range cellSpans {
		if cs.ParentID != root.SpanID() {
			t.Errorf("cell span parent = %s, want root %s", cs.ParentID, root.SpanID())
		}
		keyV, ok := cs.Attr("key")
		if !ok {
			t.Fatal("cell span missing key attribute")
		}
		res, ok := resByKey[keyV.(string)]
		if !ok {
			t.Fatalf("cell span for unknown key %v", keyV)
		}
		att, ok := cs.Attr("attempts")
		if !ok {
			t.Fatalf("cell %v span missing attempts", keyV)
		}
		if att.(int64) != int64(res.Attempts) {
			t.Errorf("cell %v span attempts = %v, result has %d", keyV, att, res.Attempts)
		}
		cached, ok := cs.Attr("cached")
		if !ok || cached.(bool) != res.Cached {
			t.Errorf("cell %v span cached = %v (ok=%v), result has %v", keyV, cached, ok, res.Cached)
		}
		qw, ok := cs.Attr("queue_wait_s")
		if !ok {
			t.Fatalf("cell %v span missing queue_wait_s", keyV)
		}
		if qw.(float64) < 0 {
			t.Errorf("cell %v queue_wait_s = %v, want >= 0", keyV, qw)
		}
		// One attempt child per attempt, numbered from 1; failed attempts
		// carry their error, the last (successful) one does not.
		kids := attemptsByParent[cs.SpanID]
		if len(kids) != res.Attempts {
			t.Fatalf("cell %v has %d attempt spans, result says %d attempts", keyV, len(kids), res.Attempts)
		}
		seen := make(map[int64]obs.SpanData, len(kids))
		for _, k := range kids {
			n, ok := k.Attr("attempt")
			if !ok {
				t.Fatal("attempt span missing attempt number")
			}
			seen[n.(int64)] = k
		}
		for i := int64(1); i <= int64(res.Attempts); i++ {
			k, ok := seen[i]
			if !ok {
				t.Fatalf("cell %v missing attempt span #%d", keyV, i)
			}
			_, hasErr := k.Attr("error")
			if i < int64(res.Attempts) && !hasErr {
				t.Errorf("cell %v attempt %d should carry its transient error", keyV, i)
			}
			if i == int64(res.Attempts) && hasErr {
				t.Errorf("cell %v final attempt unexpectedly carries an error", keyV)
			}
		}
		attempts += int64(res.Attempts)
		if res.Attempts > 1 {
			sawRetry = true
		}
		// Every attempt span nests inside [cell start, cell end] on the
		// deterministic clock, and the cell nests inside the root.
		for _, k := range kids {
			if k.Start.Before(cs.Start) || k.End.After(cs.End) {
				t.Errorf("attempt span [%v, %v] escapes cell span [%v, %v]", k.Start, k.End, cs.Start, cs.End)
			}
		}
		rootData, ok := byID[root.SpanID()]
		if !ok {
			t.Fatal("root span not in ring")
		}
		if cs.Start.Before(rootData.Start) || cs.End.After(rootData.End) {
			t.Error("cell span escapes root span bounds")
		}
	}
	if !sawRetry {
		t.Fatal("probability-0.5 faults never forced a retry; attempt-span error checks did not exercise")
	}
	// Each retried attempt re-enters the cache as a fresh miss (failures
	// are forgotten), so the cache's misses are the attempts summed over
	// the cells, and nothing was served from it.
	if m := cache.Misses(); m != attempts {
		t.Errorf("cache misses = %d across %d attempts", m, attempts)
	}
	if h := cache.Hits(); h != 0 {
		t.Errorf("cache hits = %d on a cold run, want 0", h)
	}
}

// TestTracedCacheHitSpans pins that a duplicate cell served from the
// cache produces a span with cached=true over a single attempt, and
// moves the cache's hit counter by exactly one and its miss counter not
// at all.
func TestTracedCacheHitSpans(t *testing.T) {
	clk := &traceClock{now: time.Unix(2000, 0), tick: time.Millisecond}
	tr := obs.NewTracer(obs.WithClock(clk.Now), obs.WithRing(256), obs.WithIDSeed(3))
	cache := NewCache()

	// First run warms the cache; second run must hit it.
	if _, err := Run(context.Background(), smallPlan(), Options{Workers: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := cache.Hits(), cache.Misses()
	ctx, root := tr.Start(context.Background(), "test/sweep")
	results, err := Run(ctx, smallPlan(), Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(results) != 1 || !results[0].Cached {
		t.Fatalf("second run should be fully cached: %+v", results)
	}
	if d := cache.Hits() - hits0; d != 1 {
		t.Fatalf("cache hits moved by %d, want 1", d)
	}
	if d := cache.Misses() - misses0; d != 0 {
		t.Fatalf("cached run moved cache misses by %d, want 0", d)
	}

	var cells, attempts int
	for _, sd := range tr.Ring().Trace(root.TraceID()) {
		switch sd.Name {
		case SpanCell:
			cells++
			if v, _ := sd.Attr("cached"); v != true {
				t.Errorf("cached cell span has cached = %v", v)
			}
		case SpanAttempt:
			attempts++
		}
	}
	if cells != 1 || attempts != 1 {
		t.Fatalf("cached run traced %d cell and %d attempt spans, want 1 and 1", cells, attempts)
	}
}

// TestUntracedSweepRuns pins the off path: with no tracer in the
// context the instrumented engine still runs cleanly (and emits
// nothing, trivially — there is no ring to emit into).
func TestUntracedSweepRuns(t *testing.T) {
	results, err := Run(context.Background(), smallPlan(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Cell.Key(), r.Err)
		}
	}
}

// TestUntracedWarmCellAllocs pins what an untraced sweep pays per warm
// cell: the worker pool, the channels and the result, and nothing for
// span attributes or fault sites it has no tracer or injector to hand
// them to.
func TestUntracedWarmCellAllocs(t *testing.T) {
	cells, err := smallPlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:1]
	opt := Options{Workers: 1, Cache: NewCache()}
	ctx := context.Background()
	if _, err := RunCells(ctx, cells, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := RunCells(ctx, cells, opt); err != nil {
			t.Fatal(err)
		}
	})
	const want = 11
	if allocs > want {
		t.Fatalf("warm untraced RunCells of one cell makes %v allocations, want at most %d", allocs, want)
	}
}

// TestBackoffEventsOnCellSpan pins that retry backoffs surface as
// events on the cell span (not the attempt spans), one per sleep.
func TestBackoffEventsOnCellSpan(t *testing.T) {
	clk := &traceClock{now: time.Unix(3000, 0), tick: time.Millisecond}
	tr := obs.NewTracer(obs.WithClock(clk.Now), obs.WithRing(256), obs.WithIDSeed(5))
	inj := fault.New(1)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindError, Max: 2})

	ctx, root := tr.Start(context.Background(), "test/sweep")
	results, err := Run(ctx, smallPlan(), Options{Workers: 1, Retry: retryOpts(1), Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if results[0].Attempts != 3 {
		t.Fatalf("Max:2 injection should force exactly 3 attempts, got %d", results[0].Attempts)
	}
	for _, sd := range tr.Ring().Trace(root.TraceID()) {
		if sd.Name != SpanCell {
			continue
		}
		var backoffs int
		for _, ev := range sd.Events {
			if ev.Name == "backoff" {
				backoffs++
				if len(ev.Attrs) == 0 || !strings.HasPrefix(ev.Attrs[0].Key, "attempt") {
					t.Errorf("backoff event missing attempt attr: %+v", ev)
				}
			}
		}
		if backoffs != 2 {
			t.Errorf("cell span has %d backoff events, want 2 (one per retry sleep)", backoffs)
		}
	}
}
