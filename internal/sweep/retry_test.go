package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// retryOpts is the fast backoff schedule the injected-fault tests share.
func retryOpts(seed int64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 30,
		BaseDelay:   50 * time.Microsecond,
		MaxDelay:    500 * time.Microsecond,
		Seed:        seed,
	}
}

// TestRetryDeterministicUnderInjectedFaults is the tentpole acceptance
// run: with transient faults injected at probability 0.3 under a fixed
// seed, the full paper plan completes with every cell succeeding via
// retries, the reports are byte-identical to a fault-free run, and two
// identically-seeded invocations reproduce each other exactly — at any
// worker count, because fault draws and retry jitter are keyed by cell,
// not by goroutine.
func TestRetryDeterministicUnderInjectedFaults(t *testing.T) {
	ctx := context.Background()
	clean, err := Run(ctx, PaperPlan(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)

	chaosRun := func(workers int) ([]string, []int) {
		inj := fault.New(42)
		inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindError, Prob: 0.3})
		results, err := Run(ctx, PaperPlan(), Options{
			Workers: workers,
			Retry:   retryOpts(42),
			Inject:  inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		attempts := make([]int, len(results))
		for i, r := range results {
			attempts[i] = r.Attempts
		}
		return renderAll(t, results), attempts
	}

	gotA, attA := chaosRun(8)
	for i := range want {
		if gotA[i] != want[i] {
			t.Fatalf("cell %d differs from fault-free run:\n%s\n%s", i, gotA[i], want[i])
		}
	}
	retried := 0
	for _, a := range attA {
		if a < 1 || a > 30 {
			t.Fatalf("attempts out of range: %d", a)
		}
		if a > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("probability-0.3 faults never forced a retry across 36 cells")
	}

	// Reproducible: a second seeded invocation — at a different worker
	// count — injects the same schedule and retries identically.
	gotB, attB := chaosRun(1)
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("cell %d report differs across identically-seeded chaos runs", i)
		}
		if attA[i] != attB[i] {
			t.Fatalf("cell %d attempts differ across worker counts: %d vs %d", i, attA[i], attB[i])
		}
	}
}

// TestRetryDisabledSurfacesPartialResults pins the partial-results
// contract: without a retry policy an injected fault lands in that
// cell's Err while every sibling still completes — no first-error abort.
func TestRetryDisabledSurfacesPartialResults(t *testing.T) {
	inj := fault.New(7)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindError, Max: 1})
	results, err := Run(context.Background(), PaperPlan(), Options{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, fault.ErrInjected) {
				t.Fatalf("unexpected cell error: %v", r.Err)
			}
			if r.Attempts != 1 {
				t.Fatalf("retries ran without a policy: %d attempts", r.Attempts)
			}
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("Max:1 rule failed %d cells, want exactly 1", failed)
	}
	if len(results) != 36 {
		t.Fatalf("partial run returned %d results, want all 36", len(results))
	}
}

// TestRetryHonorsContextMidBackoff: a context that ends while a cell
// waits out its backoff surfaces as that cell's error instead of
// spinning on a dead deadline.
func TestRetryHonorsContextMidBackoff(t *testing.T) {
	inj := fault.New(1)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindError}) // always fires
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	results, err := Run(ctx, Plan{
		Archs:    []Arch{INCAArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference},
	}, Options{
		Workers: 1,
		Inject:  inj,
		Retry:   RetryPolicy{MaxAttempts: 1 << 20, BaseDelay: 10 * time.Second, MaxDelay: time.Minute},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run err = %v, want deadline exceeded", err)
	}
	if len(results) != 1 || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("cell result = %+v", results)
	}
}

// flakySim fails its first failures Simulate calls with a transient
// error, then succeeds forever.
type flakySim struct {
	remaining atomic.Int64 // failures still to serve
	evals     atomic.Int64
}

func (f *flakySim) Simulate(_ context.Context, net *nn.Network, phase sim.Phase) (*sim.Report, error) {
	f.evals.Add(1)
	if f.remaining.Add(-1) >= 0 {
		return nil, fault.MarkTransient(errors.New("flaky device"))
	}
	var r metrics.Result
	r.Latency = 1
	return &sim.Report{Arch: "flaky", Network: net.Name, Phase: phase, Batch: 1, Total: r}, nil
}

// TestRetryReentersCacheAfterTransientFailure covers the cache
// interplay the retry loop depends on: a failed flight is forgotten, so
// the retry re-enters as a fresh miss; once a flight lands, siblings
// coalesce. Exercised at worker budgets {1, GOMAXPROCS}.
func TestRetryReentersCacheAfterTransientFailure(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			flaky := &flakySim{}
			flaky.remaining.Store(2)
			identity := func(c arch.Config) arch.Config { return c }
			p := Plan{
				Archs: []Arch{{
					Name:  "flaky",
					Fixed: true, // all overrides share one cache key
					Build: func(arch.Config) (sim.Simulator, error) { return flaky, nil },
				}},
				Networks: []*nn.Network{{Name: "net"}},
				Phases:   []sim.Phase{sim.Inference},
				Overrides: []Override{
					{Name: "a", Apply: identity},
					{Name: "b", Apply: identity},
					{Name: "c", Apply: identity},
				},
			}
			cache := NewCache()
			results, err := Run(context.Background(), p, Options{
				Workers: workers,
				Cache:   cache,
				Retry:   retryOpts(3),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("cell %d: %v (attempts %d)", i, r.Err, r.Attempts)
				}
				if r.Attempts < 1 {
					t.Fatalf("cell %d reports %d attempts", i, r.Attempts)
				}
			}
			// Exactly 2 failing evals + 1 success, each a distinct flight:
			// singleflight serializes per key, failures are forgotten, and
			// the stored success ends re-evaluation for good.
			if got := flaky.evals.Load(); got != 3 {
				t.Fatalf("simulator evaluated %d times, want 3", got)
			}
			if cache.Misses() != 3 {
				t.Fatalf("misses = %d, want 3 (each retry re-enters as a miss)", cache.Misses())
			}
			if cache.Len() != 1 {
				t.Fatalf("cache holds %d entries, want 1", cache.Len())
			}
			if cache.Expired() != 0 {
				t.Fatalf("expired = %d with no context aborts", cache.Expired())
			}
			if workers == 1 {
				// Serial order is fully determined: cell 0 absorbs all three
				// attempts, cells 1 and 2 are pure hits.
				if results[0].Attempts != 3 {
					t.Fatalf("first cell took %d attempts, want 3", results[0].Attempts)
				}
				if cache.Hits() != 2 {
					t.Fatalf("hits = %d, want 2", cache.Hits())
				}
			}
		})
	}
}

// TestCacheExpiredWaiterThenRetrySucceeds drives the Expired path by
// hand: a waiter abandons a failing in-flight eval (counted by
// Expired, not hits/misses), the failure is forgotten, and the key's
// next caller re-enters and succeeds.
func TestCacheExpiredWaiterThenRetrySucceeds(t *testing.T) {
	cache := NewCache()
	key := "x/c/n"
	started := make(chan struct{})
	release := make(chan struct{})
	boom := fault.MarkTransient(errors.New("boom"))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
			close(started)
			<-release
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("flight err = %v", err)
		}
	}()

	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, cached, err := cache.Do(ctx, key, func() (*sim.Report, error) {
		t.Error("waiter must not start its own eval")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || cached {
		t.Fatalf("abandoned wait = (%v, cached=%v)", err, cached)
	}
	if cache.Expired() != 1 {
		t.Fatalf("expired = %d, want 1", cache.Expired())
	}

	close(release)
	wg.Wait()
	rep, cached, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
		return &sim.Report{Arch: "ok"}, nil
	})
	if err != nil || cached || rep.Arch != "ok" {
		t.Fatalf("retry after forgotten failure = (%v, cached=%v, err=%v)", rep, cached, err)
	}
	if cache.Misses() != 2 || cache.Hits() != 0 {
		t.Fatalf("misses/hits = %d/%d, want 2/0", cache.Misses(), cache.Hits())
	}
	if cache.Len() != 1 {
		t.Fatalf("entries = %d, want 1", cache.Len())
	}
}

// TestMapDrainsSiblingsOnEarlyError is the goroutine-leak regression:
// a mid-slice error stops new items from being fed, but Map must not
// return while any started sibling is still running.
func TestMapDrainsSiblingsOnEarlyError(t *testing.T) {
	boom := errors.New("boom")
	var started, inFlight atomic.Int64
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	_, err := Map(context.Background(), 4, items, func(_ context.Context, v int) (int, error) {
		started.Add(1)
		inFlight.Add(1)
		defer inFlight.Add(-1)
		if v == 2 {
			return 0, boom
		}
		time.Sleep(5 * time.Millisecond) // siblings outlive the failing item
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map err = %v, want boom", err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d goroutines still inside f after Map returned", n)
	}
	if n := started.Load(); n >= 64 {
		t.Fatal("early error did not stop the feed")
	}
}

// TestMapRecoversPanics: a panicking f surfaces as ErrMapPanic on its
// item instead of killing the pool, and siblings still drain.
func TestMapRecoversPanics(t *testing.T) {
	var inFlight atomic.Int64
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out, err := Map(context.Background(), 3, items, func(_ context.Context, v int) (int, error) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		if v == 1 {
			panic("kaboom")
		}
		time.Sleep(2 * time.Millisecond)
		return v, nil
	})
	if !errors.Is(err, ErrMapPanic) {
		t.Fatalf("Map err = %v, want ErrMapPanic", err)
	}
	if inFlight.Load() != 0 {
		t.Fatal("panicking item leaked running siblings")
	}
	if len(out) != len(items) {
		t.Fatalf("results slice has %d slots, want %d", len(out), len(items))
	}
}

// TestMapSerialStopsFeedingImmediately pins the tightest drain bound:
// with one worker, an error on the first item starts nothing else.
func TestMapSerialStopsFeedingImmediately(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3}
	_, err := Map(context.Background(), 1, items, func(_ context.Context, v int) (int, error) {
		started.Add(1)
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map err = %v", err)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("serial Map started %d items after an immediate error, want 1", n)
	}
}
