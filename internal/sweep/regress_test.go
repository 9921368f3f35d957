package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// lateCancelSim completes every cell normally but ends the run's context
// from inside the final cell — after that cell's report is already
// computed. No cell loses work to the cancellation.
type lateCancelSim struct {
	calls  atomic.Int64
	total  int64
	cancel context.CancelFunc
}

func (s *lateCancelSim) Simulate(_ context.Context, net *nn.Network, phase sim.Phase) (*sim.Report, error) {
	if s.calls.Add(1) == s.total {
		s.cancel()
	}
	var r metrics.Result
	r.Latency = 1
	return &sim.Report{Arch: "late", Network: net.Name, Phase: phase, Batch: 1, Total: r}, nil
}

// Regression: Run used to return ctx.Err() whenever the context had ended
// by collection time, even when every cell had already completed — a clean
// sweep whose caller cancels on the last result was reported as failed.
// Run must only surface the context error when some cell actually carries
// it.
func TestRunCleanCompletionIgnoresLateContextEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nets := []*nn.Network{
		{Name: "n0"}, {Name: "n1"}, {Name: "n2"},
	}
	s := &lateCancelSim{total: int64(len(nets)), cancel: cancel}
	p := Plan{
		Archs: []Arch{{
			Name:  "late",
			Fixed: true,
			Build: func(arch.Config) (sim.Simulator, error) { return s, nil },
		}},
		Networks: nets,
		Phases:   []sim.Phase{sim.Inference},
	}
	// One worker serializes the cells, so the cancellation inside the last
	// cell cannot preempt an earlier one.
	results, err := Run(ctx, p, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Run returned %v for a sweep whose every cell completed", err)
	}
	if len(results) != len(nets) {
		t.Fatalf("results = %d, want %d", len(results), len(nets))
	}
	for i, r := range results {
		if r.Err != nil || r.Report == nil {
			t.Fatalf("cell %d: err=%v report=%v, want clean completion", i, r.Err, r.Report)
		}
	}
	if ctx.Err() == nil {
		t.Fatal("test is vacuous: context never ended")
	}
	// A context that ends with cells still unexecuted must still surface.
	results, err = Run(ctx, p, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on already-cancelled ctx err = %v, want Canceled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unexecuted cell err = %v, want Canceled", r.Err)
		}
	}
}

// Regression: a waiter whose context ended while another goroutine's
// evaluation was in flight used to count as a cache *hit* and report
// cached=true with a nil report. It received nothing; Hits()/Misses()
// must stay truthful and the wait is tallied separately as Expired.
func TestCacheExpiredWaiterAccounting(t *testing.T) {
	cache := NewCache()
	key := "x/y/z"
	started := make(chan struct{})
	release := make(chan struct{})
	flightDone := make(chan struct{})
	go func() {
		defer close(flightDone)
		_, cached, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
			close(started)
			<-release
			return &sim.Report{Arch: "x"}, nil
		})
		if err != nil || cached {
			t.Errorf("flight owner: cached=%v err=%v, want false/nil", cached, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, cached, err := cache.Do(ctx, key, func() (*sim.Report, error) {
		t.Error("cancelled waiter must not run eval")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want Canceled", err)
	}
	if cached || rep != nil {
		t.Fatalf("cancelled waiter got cached=%v rep=%v, want false/nil", cached, rep)
	}
	if h, m, e := cache.Hits(), cache.Misses(), cache.Expired(); h != 0 || m != 1 || e != 1 {
		t.Fatalf("hits/misses/expired = %d/%d/%d, want 0/1/1", h, m, e)
	}

	close(release)
	<-flightDone
	// The abandoned flight still landed for future callers.
	rep, cached, err = cache.Do(context.Background(), key, func() (*sim.Report, error) {
		return nil, fmt.Errorf("must be served from cache")
	})
	if err != nil || !cached || rep == nil || rep.Arch != "x" {
		t.Fatalf("post-flight Do = (%v, %v, %v), want cached report", rep, cached, err)
	}
	if h, m, e := cache.Hits(), cache.Misses(), cache.Expired(); h != 1 || m != 1 || e != 1 {
		t.Fatalf("final hits/misses/expired = %d/%d/%d, want 1/1/1", h, m, e)
	}
}

// A waiter whose context ends only after the flight completed must be
// served the result: a finished evaluation is never an expired wait.
func TestCachePrefersReadyResultOverEndedContext(t *testing.T) {
	cache := NewCache()
	key := "x"
	if _, _, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
		return &sim.Report{Arch: "x"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ { // select order is random; hammer it
		rep, cached, err := cache.Do(ctx, key, func() (*sim.Report, error) {
			t.Fatal("stored key must not re-evaluate")
			return nil, nil
		})
		if err != nil || !cached || rep == nil {
			t.Fatalf("iter %d: Do = (%v, %v, %v), want stored report", i, rep, cached, err)
		}
	}
	if e := cache.Expired(); e != 0 {
		t.Fatalf("expired = %d, want 0 (result was ready)", e)
	}
}
