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
	"github.com/inca-arch/inca/internal/tensor"
)

// TestEvalPanicUnblocksWaiters is the regression test for the
// eval-panic deadlock: a panic inside Cache.Do's eval used to skip
// close(e.ready), hanging every concurrent waiter coalesced onto the
// key forever and leaving a dead entry that poisoned all future
// callers. Now the panic is recovered into ErrEvalPanic, every waiter
// unblocks with it, and the key stays retriable. The panic is injected
// through a real fault.KindPanic rule so the test exercises the same
// path a chaos run does.
func TestEvalPanicUnblocksWaiters(t *testing.T) {
	cache := NewCache()
	key := "inca/is/fixed/lenet5/inference"
	site := "sweep/cell/" + key

	inj := fault.New(1)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindPanic, Max: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	const waiters = 8
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup

	// Leader: holds the flight open until the waiters have piled on,
	// then panics via the injector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = cache.Do(context.Background(), key, func() (*sim.Report, error) {
			close(entered)
			<-release
			return nil, inj.Hit(context.Background(), site)
		})
	}()
	<-entered
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cache.Do(context.Background(), key, func() (*sim.Report, error) {
				t.Error("waiter ran eval; singleflight broken")
				return nil, nil
			})
		}(i)
	}
	// Let the waiters reach the ready-channel wait, then fire the panic.
	time.Sleep(10 * time.Millisecond)
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: waiters never unblocked after eval panic")
	}
	for i, err := range errs {
		if !errors.Is(err, ErrEvalPanic) {
			t.Fatalf("caller %d err = %v, want ErrEvalPanic", i, err)
		}
	}

	// The key must be forgotten, not poisoned: the next caller
	// re-evaluates and succeeds.
	rep, cached, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
		return &sim.Report{Arch: "inca"}, nil
	})
	if err != nil || cached || rep.Arch != "inca" {
		t.Fatalf("panicked key must stay retriable: rep=%v cached=%v err=%v", rep, cached, err)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1 (the retried success)", n)
	}
}

// TestSweepSurvivesInjectedPanic runs a whole sweep with a KindPanic
// rule armed at the cell sites: exactly one cell surfaces ErrEvalPanic
// in its Result, every sibling completes normally, and re-running the
// plan against the same cache heals the failed cell — panics are
// terminal for the attempt but never for the key.
func TestSweepSurvivesInjectedPanic(t *testing.T) {
	a := Arch{
		Name:  "chaos",
		Fixed: true,
		Build: func(arch.Config) (sim.Simulator, error) { return fixedSim{}, nil },
	}
	nets := make([]*nn.Network, 6)
	for i := range nets {
		nets[i] = &nn.Network{Name: fmt.Sprintf("net-%d", i)}
	}
	plan := Plan{Archs: []Arch{a}, Networks: nets, Phases: []sim.Phase{sim.Inference}}

	inj := fault.New(3)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindPanic, Max: 1})
	cache := NewCache()
	results, err := Run(context.Background(), plan, Options{Workers: 4, Cache: cache, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	panicked := 0
	for _, r := range results {
		switch {
		case errors.Is(r.Err, ErrEvalPanic):
			panicked++
		case r.Err != nil:
			t.Fatalf("cell %s: unexpected error %v", r.Cell.Key(), r.Err)
		case r.Report == nil:
			t.Fatalf("cell %s: clean cell missing report", r.Cell.Key())
		}
	}
	if panicked != 1 {
		t.Fatalf("injected 1 panic, saw %d ErrEvalPanic results", panicked)
	}

	// Same cache, injector exhausted: the panicked key re-evaluates
	// cleanly, the rest are cache hits.
	results, err = Run(context.Background(), plan, Options{Workers: 4, Cache: cache, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s still failing after retry run: %v", r.Cell.Key(), r.Err)
		}
	}
	if misses := cache.Misses(); misses != int64(len(nets)+1) {
		t.Fatalf("misses = %d, want %d (initial cells + one healed retry)", misses, len(nets)+1)
	}
}

// fixedSim returns a constant report instantly.
type fixedSim struct{}

func (fixedSim) Simulate(_ context.Context, net *nn.Network, phase sim.Phase) (*sim.Report, error) {
	var r metrics.Result
	r.Latency = 1
	return &sim.Report{Arch: "chaos", Network: net.Name, Phase: phase, Batch: 1, Total: r}, nil
}

// TestAbandonedStreamRestoresKernelBudget is the leak test for the
// abandoned-consumer bug: a caller that stops draining Stream's channel
// used to leave workers blocked on their sends, so restoreKernels never
// ran and the process-wide tensor budget stayed at the run's override
// forever. The buffered channel makes the run independent of its
// consumer: the budget is restored and every goroutine exits even when
// the caller reads nothing at all.
func TestAbandonedStreamRestoresKernelBudget(t *testing.T) {
	prev := tensor.Parallelism()
	baseline := runtime.NumGoroutine()

	var slow atomic.Int64
	a := Arch{
		Name:  "abandon",
		Fixed: true,
		Build: func(arch.Config) (sim.Simulator, error) {
			slow.Add(1)
			return fixedSim{}, nil
		},
	}
	nets := make([]*nn.Network, 16)
	for i := range nets {
		nets[i] = &nn.Network{Name: fmt.Sprintf("net-%02d", i)}
	}
	plan := Plan{Archs: []Arch{a}, Networks: nets, Phases: []sim.Phase{sim.Inference}}

	ch, err := Stream(context.Background(), plan, Options{Workers: 4, KernelParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Read one result, then walk away without draining or cancelling —
	// the abusive consumer the drain contract must survive.
	<-ch
	ch = nil

	deadline := time.Now().Add(10 * time.Second)
	for tensor.Parallelism() != prev {
		if time.Now().After(deadline) {
			t.Fatalf("kernel budget stuck at %d; restore never ran (want %d)", tensor.Parallelism(), prev)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := slow.Load(); got != int64(len(nets)) {
		t.Fatalf("abandoned run evaluated %d cells, want all %d", got, len(nets))
	}
}
