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
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

func TestPlanCellsOrderAndSeq(t *testing.T) {
	p := Plan{
		Archs:    []Arch{INCAArch(), BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
	cells, err := p.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	for i, c := range cells {
		if c.Seq != i {
			t.Fatalf("cell %d has Seq %d", i, c.Seq)
		}
	}
	// Archs outermost, phases innermost.
	if cells[0].Arch.Name != "INCA" || cells[4].Arch.Name != "WS-Baseline" {
		t.Fatalf("arch order wrong: %s, %s", cells[0].Arch.Name, cells[4].Arch.Name)
	}
	if cells[0].Phase != sim.Inference || cells[1].Phase != sim.Training {
		t.Fatal("phase should be the innermost axis")
	}
	if cells[0].Network.Name != cells[1].Network.Name {
		t.Fatal("adjacent cells should share a network")
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := (Plan{}).Cells(); !errors.Is(err, ErrEmptyPlan) {
		t.Fatalf("empty plan err = %v", err)
	}
	p := Plan{Archs: []Arch{{Name: "broken"}}, Networks: []*nn.Network{nn.LeNet5()}, Phases: []sim.Phase{sim.Inference}}
	if _, err := p.Cells(); !errors.Is(err, ErrNilBuild) {
		t.Fatalf("nil build err = %v", err)
	}
	p = Plan{Archs: []Arch{INCAArch()}, Networks: []*nn.Network{nil}, Phases: []sim.Phase{sim.Inference}}
	if _, err := p.Cells(); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network err = %v", err)
	}
	p = Plan{
		Archs:     []Arch{INCAArch()},
		Networks:  []*nn.Network{nn.LeNet5()},
		Phases:    []sim.Phase{sim.Inference},
		Overrides: []Override{{Name: "broken"}},
	}
	if _, err := p.Cells(); !errors.Is(err, ErrNilOverride) {
		t.Fatalf("nil override err = %v", err)
	}
	if _, err := Stream(context.Background(), Plan{}, Options{}); !errors.Is(err, ErrEmptyPlan) {
		t.Fatalf("Stream should reject an invalid plan synchronously, got %v", err)
	}
}

// renderAll fingerprints every report of a result set for byte-level
// comparison across runs.
func renderAll(t *testing.T, results []Result) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d (%s): %v", i, r.Cell.Key(), r.Err)
		}
		out[i] = fmt.Sprintf("%+v", *r.Report)
	}
	return out
}

func TestParallelMatchesSerialByteForByte(t *testing.T) {
	ctx := context.Background()
	serial, err := Run(ctx, PaperPlan(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ctx, PaperPlan(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 36 || len(parallel) != 36 {
		t.Fatalf("paper sweep = %d/%d cells, want 36", len(serial), len(parallel))
	}
	sr, pr := renderAll(t, serial), renderAll(t, parallel)
	for i := range sr {
		if sr[i] != pr[i] {
			t.Fatalf("cell %d (%s) differs between serial and parallel runs:\n%s\n%s",
				i, serial[i].Cell.Key(), sr[i], pr[i])
		}
	}
}

func TestDeterministicResultOrder(t *testing.T) {
	ctx := context.Background()
	cells, _ := PaperPlan().Cells()
	for trial := 0; trial < 3; trial++ {
		results, err := Run(ctx, PaperPlan(), Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Cell.Seq != i {
				t.Fatalf("trial %d: result %d carries Seq %d", trial, i, r.Cell.Seq)
			}
			if r.Cell.Key() != cells[i].Key() {
				t.Fatalf("trial %d: result %d is cell %s, want %s",
					trial, i, r.Cell.Key(), cells[i].Key())
			}
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every build after the first waits until the consumer has
	// cancelled, so cells cannot all finish before cancel() lands
	// however fast the host is.
	plan := PaperPlan()
	cancelled := make(chan struct{})
	var builds atomic.Int32
	for i := range plan.Archs {
		build := plan.Archs[i].Build
		plan.Archs[i].Build = func(cfg arch.Config) (sim.Simulator, error) {
			if builds.Add(1) > 1 {
				<-cancelled
			}
			return build(cfg)
		}
	}
	ch, err := Stream(ctx, plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var done, failed int
	first := true
	for r := range ch {
		if first {
			cancel()
			close(cancelled)
			first = false
		}
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("unexpected cell error: %v", r.Err)
			}
			failed++
		} else {
			done++
		}
	}
	if done+failed != 36 {
		t.Fatalf("results = %d, want one per cell (36)", done+failed)
	}
	if failed == 0 {
		t.Fatal("cancellation mid-sweep should abort some cells")
	}
	// Run reports the context error and still returns every cell.
	results, err := Run(ctx, PaperPlan(), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx err = %v", err)
	}
	if len(results) != 36 {
		t.Fatalf("cancelled Run returned %d results, want 36", len(results))
	}
}

func TestCacheHitCounting(t *testing.T) {
	identity := func(cfg arch.Config) arch.Config { return cfg }
	p := Plan{
		Archs:    []Arch{INCAArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference},
		// Three overrides yielding one identical config: 3 cells, 1 key.
		Overrides: []Override{
			{Name: "a", Apply: identity},
			{Name: "b", Apply: identity},
			{Name: "c", Apply: identity},
		},
	}
	cache := NewCache()
	results, err := Run(context.Background(), p, Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 1 || cache.Hits() != 2 {
		t.Fatalf("cache misses/hits = %d/%d, want 1/2", cache.Misses(), cache.Hits())
	}
	var cached int
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	if cached != 2 {
		t.Fatalf("cached results = %d, want 2", cached)
	}
	// A second run over the same plan is served entirely from the cache.
	if _, err := Run(context.Background(), p, Options{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 1 || cache.Hits() != 5 {
		t.Fatalf("after rerun misses/hits = %d/%d, want 1/5", cache.Misses(), cache.Hits())
	}
	if cache.Len() != 1 {
		t.Fatalf("cache stores %d entries, want 1", cache.Len())
	}
}

func TestCacheSingleflight(t *testing.T) {
	cache := NewCache()
	key := Key{Arch: "x", Config: "y", Network: "z"}
	var evals atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
				evals.Add(1)
				time.Sleep(2 * time.Millisecond)
				return &sim.Report{Arch: "x"}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if evals.Load() != 1 {
		t.Fatalf("eval ran %d times, want 1 (singleflight)", evals.Load())
	}
}

func TestCacheForgetsFailures(t *testing.T) {
	cache := NewCache()
	key := Key{Arch: "x"}
	boom := errors.New("boom")
	_, _, err := cache.Do(context.Background(), key, func() (*sim.Report, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	rep, cached, err := cache.Do(context.Background(), key, func() (*sim.Report, error) {
		return &sim.Report{Arch: "ok"}, nil
	})
	if err != nil || cached || rep.Arch != "ok" {
		t.Fatalf("failed keys must be retryable: %v %v %v", rep, cached, err)
	}
}

// gaugeSim observes worker-pool concurrency.
type gaugeSim struct {
	inFlight, peak atomic.Int64
}

func (g *gaugeSim) Simulate(ctx context.Context, net *nn.Network, phase sim.Phase) (*sim.Report, error) {
	n := g.inFlight.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	g.inFlight.Add(-1)
	var r metrics.Result
	r.Latency = 1
	return &sim.Report{Arch: "gauge", Network: net.Name, Phase: phase, Batch: 1, Total: r}, nil
}

func TestWorkerPoolSaturation(t *testing.T) {
	gauge := &gaugeSim{}
	nets := make([]*nn.Network, 32)
	for i := range nets {
		nets[i] = &nn.Network{Name: fmt.Sprintf("net-%02d", i)}
	}
	a := Arch{
		Name:  "gauge",
		Fixed: true,
		Build: func(arch.Config) (sim.Simulator, error) { return gauge, nil },
	}
	const workers = 4
	results, err := Run(context.Background(), Plan{
		Archs:    []Arch{a},
		Networks: nets,
		Phases:   []sim.Phase{sim.Inference},
	}, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(nets) {
		t.Fatalf("results = %d, want %d", len(results), len(nets))
	}
	if peak := gauge.peak.Load(); peak > workers {
		t.Fatalf("pool ran %d cells concurrently, bounded at %d", peak, workers)
	}
	if peak := gauge.peak.Load(); peak < 2 {
		t.Fatalf("pool never overlapped cells (peak %d); workers idle", peak)
	}
}

func TestMapPreservesOrderAndBounds(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), 4, items, func(_ context.Context, v int) (int, error) {
		time.Sleep(time.Microsecond)
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 4, items, func(context.Context, int) (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Map err = %v", err)
	}
}

func TestGPUCellsShareOneKeyAcrossOverrides(t *testing.T) {
	p := Plan{
		Archs:    []Arch{GPUArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference},
		Overrides: []Override{
			{Name: "batch=1", Apply: func(c arch.Config) arch.Config { c.BatchSize = 1; return c }},
			{Name: "batch=64", Apply: func(c arch.Config) arch.Config { c.BatchSize = 64; return c }},
		},
	}
	cache := NewCache()
	results, err := Run(context.Background(), p, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if cache.Misses() != 1 {
		t.Fatalf("fixed arch should evaluate once across overrides, got %d misses", cache.Misses())
	}
	if results[0].Report != results[1].Report {
		t.Fatal("fixed-arch cells should alias one cached report")
	}
}

func TestInvalidConfigSurfacesAsCellError(t *testing.T) {
	bad := arch.INCA()
	bad.BatchSize = 0
	p := Plan{
		Archs:    []Arch{ConfigArch(bad)},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference},
	}
	results, err := Run(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("invalid config should fail the cell, not panic")
	}
}

func TestRunUsesGOMAXPROCSByDefault(t *testing.T) {
	// Smoke-test the Workers<=0 default on the real paper plan.
	results, err := Run(context.Background(), PaperPlan(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 36 {
		t.Fatalf("results = %d, want 36", len(results))
	}
	_ = runtime.GOMAXPROCS(0)
}
