package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tensor"
)

// workload is one named traffic mix: how many closed-loop clients drive
// it and how a fresh copy of the system under test is booted for it.
type workload struct {
	name    string
	clients int
	setup   func(*env) (*instance, error)
}

// workloads is the registry the -workload flag selects from. Each entry
// says in its setup function's comment which layers it stresses.
var workloads = map[string]workload{
	"explore":     {name: "explore", clients: 1, setup: setupExplore},
	"dashboard":   {name: "dashboard", clients: 8, setup: setupDashboard},
	"fleet":       {name: "fleet", clients: 4, setup: setupFleet},
	"noise-train": {name: "noise-train", clients: 1, setup: setupNoiseTrain},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// env is what a workload's setup receives: the run's seed, a scratch
// directory for on-disk state, and the span recorder (nil when the run
// is not traced).
type env struct {
	seed  int64
	dir   string
	rec   *recorder
	boots int // setups performed so far, so each boot gets fresh state
}

// tracer returns the tracer every booted component must use, nil for an
// untraced run.
func (e *env) tracer() *obs.Tracer {
	if e.rec == nil {
		return nil
	}
	return e.rec.tracer
}

// instance is one booted copy of the system under a workload.
type instance struct {
	// op performs one operation on behalf of client c and checks its
	// answer as far as that is cheap; deeper checks run in verify.
	op func(ctx context.Context, c *client) error
	// verify checks the outputs sampled during the run against values
	// computed independently of the path under test.
	verify func() error
	// counters snapshots the program's own counters.
	counters func() counters
	close    func()
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one completed.
type client struct {
	id   int
	rng  *rand.Rand
	ops  int // operations this client issued so far
	buf  bytes.Buffer
	zipf *rand.Zipf // popularity stream, for workloads that draw from a catalog
}

// counters are the program's own counters the benchmark differences
// across the measured window.
type counters struct {
	hits, misses int64 // memo cache, summed over every node
	coalesced    int64 // whole requests replayed by the coalescing layer
	storePuts    int64
	kernels      tensor.StatsSnapshot
}

// cacheCounters reads a node's memo-cache and coalescing counters.
func cacheCounters(st sweep.CacheStats) counters {
	return counters{hits: st.Hits, misses: st.Misses, coalesced: st.CoalescedHits}
}

func (a counters) sub(b counters) counters {
	return counters{
		hits:      a.hits - b.hits,
		misses:    a.misses - b.misses,
		coalesced: a.coalesced - b.coalesced,
		storePuts: a.storePuts - b.storePuts,
		kernels: tensor.StatsSnapshot{
			Invocations: a.kernels.Invocations - b.kernels.Invocations,
			Serial:      a.kernels.Serial - b.kernels.Serial,
			Chunks:      a.kernels.Chunks - b.kernels.Chunks,
			Items:       a.kernels.Items - b.kernels.Items,
		},
	}
}

// observed is what one drive saw: each completed operation's latency
// and completion time (both measured from the window's start), the
// attempted and failed counts, a mark at each segment boundary, and the
// window's actual length.
type observed struct {
	ops       []opTime
	attempted int64
	failed    int64
	firstErr  error
	marks     []mark // segments+1 samples: the window's start, each boundary, its end
	elapsed   time.Duration
}

// mark is what drive samples at a segment boundary: the process's
// cumulative heap allocation and the machine's CPU time counters.
type mark struct {
	allocs uint64
	cpu    cpuTicks
}

func takeMark() mark { return mark{allocs: heapAllocs(), cpu: readCPUTicks()} }

type opTime struct {
	done, latency time.Duration
}

// drive runs the instance's clients in a closed loop until d has passed,
// taking a mark at the boundaries of segments equal slices of d. Client
// i draws its inputs from a stream seeded by seed and i, so the same
// seed issues the same operation sequence.
func drive(inst *instance, clients int, d time.Duration, segments int, rec *recorder, seed int64) observed {
	per := make([]observed, clients)
	all := observed{marks: []mark{takeMark()}}
	start := time.Now()
	deadline := start.Add(d)
	// Every inner boundary falls before the deadline, so waiting for the
	// sampler once the clients return costs nothing.
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k < segments; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(segments))))
			all.marks = append(all.marks, takeMark())
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{id: i, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i)))}
			o := &per[i]
			for time.Now().Before(deadline) {
				ctx, span := rec.startOp()
				t0 := time.Now()
				err := inst.op(ctx, c)
				t1 := time.Now()
				span.EndWith(err)
				c.ops++
				o.attempted++
				if err != nil {
					o.failed++
					if o.firstErr == nil {
						o.firstErr = err
					}
					continue
				}
				o.ops = append(o.ops, opTime{done: t1.Sub(start), latency: t1.Sub(t0)})
			}
		}(i)
	}
	wg.Wait()
	<-sampled
	all.marks = append(all.marks, takeMark())
	all.elapsed = time.Since(start)
	for _, o := range per {
		all.ops = append(all.ops, o.ops...)
		all.attempted += o.attempted
		all.failed += o.failed
		if all.firstErr == nil {
			all.firstErr = o.firstErr
		}
	}
	return all
}

// heapAllocs reads the bytes the process has allocated on the heap so
// far, without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
