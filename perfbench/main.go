// Command perfbench is the repository's benchmark. It boots the system
// in process exactly as a deployment would (HTTP service on loopback,
// cluster coordinator plus shards, or the training engine), drives one
// named workload for a fixed time in a closed loop, checks that every
// answer is correct, and prints one JSON result line as the last line of
// standard output.
//
// Usage (normally through run.py, which builds this binary first):
//
//	perfbench -workload dashboard -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// every layer is traced and the result carries the per-layer metrics
// instead. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/inca-arch/inca"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Each run boots its workload at least setupReps times and for at least
// setupBudget in total; the median boot time is reported as setup_s and
// the last instance is measured.
const (
	setupReps   = 5
	setupBudget = 2 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to drive: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 traces every layer and reports per-layer metrics; 0 reports end-to-end metrics")
	workdir := fs.String("workdir", "", "scratch directory for on-disk state (default: a temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(w, config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workdir: *workdir,
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// config is one run's settings.
type config struct {
	seed    int64
	window  time.Duration
	traced  bool
	workdir string
	log     io.Writer
}

// measure boots the workload repeatedly, warms the last instance up,
// drives it for the window, verifies its outputs, and folds the
// observations into the result line.
func measure(w workload, cfg config) (result, error) {
	dir := cfg.workdir
	if dir == "" {
		d, err := os.MkdirTemp("", "perfbench-*")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}

	// inca-serve always installs the kernel-stats hook, so every run
	// does, traced or not.
	kernels := inca.InstallKernelStats()
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	env := &env{seed: cfg.seed, dir: dir, rec: rec}

	// Set-up repeats at least setupReps times and until it has taken
	// setupBudget in total, so a quick set-up is timed often enough for
	// its median to settle.
	var inst *instance
	var setups []float64
	for total := 0.0; len(setups) < setupReps || total < setupBudget.Seconds(); {
		runtime.GC()
		start := time.Now()
		next, err := w.setup(env)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		total += d
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	defer inst.close()

	warm := cfg.window / 5
	if warm > time.Second {
		warm = time.Second
	}
	drive(inst, w.clients, warm, 1, rec, cfg.seed^0x5eed)

	snapshot := func() counters {
		c := inst.counters()
		c.kernels = kernels.Snapshot()
		return c
	}
	runtime.GC()
	before := snapshot()
	rec.start()
	o := drive(inst, w.clients, cfg.window, segments, rec, cfg.seed)
	rec.stop()
	delta := snapshot().sub(before)

	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	verr := inst.verify()
	if verr != nil {
		fmt.Fprintf(cfg.log, "perfbench: %s: verification failed: %v\n", w.name, verr)
	}
	if o.firstErr != nil {
		fmt.Fprintf(cfg.log, "perfbench: %s: %d of %d operations failed, first: %v\n", w.name, o.failed, o.attempted, o.firstErr)
	}
	res.Correct = verr == nil && o.failed == 0
	done := float64(len(o.ops))
	if done == 0 {
		return result{}, fmt.Errorf("%s: no operation completed in %s", w.name, cfg.window)
	}

	if cfg.traced {
		for name, m := range layerMetrics(rec.aggregate(), delta, done) {
			res.Metrics[name] = m
		}
	} else {
		st := segmentStats(o, cfg.window)
		res.Metrics["p50_ms"] = metric{st.p50, "ms"}
		res.Metrics["p90_ms"] = metric{st.p90, "ms"}
		res.Metrics["ops_per_s"] = metric{st.rate, "1/s"}
		res.Metrics["alloc_kb_per_op"] = metric{st.allocKB, "KiB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		fmt.Fprintf(cfg.log, "perfbench: %s: figures are medians over %d of %d segments (steal/rate:%s)\n", w.name, st.used, segments, st.segments)
	}
	fmt.Fprintf(cfg.log, "perfbench: %s seed=%d traced=%v ops=%d failed=%d window=%.3fs procs=%d %s\n",
		w.name, cfg.seed, cfg.traced, o.attempted, o.failed, o.elapsed.Seconds(), runtime.GOMAXPROCS(0), runtime.Version())
	return res, nil
}

// segments is how many equal slices of the window the end-to-end
// figures are computed over; each figure is a median over slices (see
// maxSteal), so a burst of contention from outside the benchmark, or a
// one-off event inside it such as a map doubling, spoils only the slices
// it falls in.
const segments = 8

// maxSteal is the share of the machine's CPU time the hypervisor may
// steal during a segment for the segment to count as quiet. Other guests
// of a shared host come and go for tens of seconds to minutes, and while
// they run the same binary runs up to 3x slower. The figures are medians
// over the quiet segments when at least half are quiet, and over every
// segment otherwise.
const maxSteal = 0.04

// windowStats are the end-to-end figures of one window.
type windowStats struct {
	p50, p90 float64 // operation latency, ms
	rate     float64 // completed operations per second
	allocKB  float64 // heap allocation per completed operation, KiB
	used     int     // segments the figures are medians over
	segments string  // each segment's steal share and rate, for the log
}

// segmentStats buckets the operations of a window of nominal length d by
// completion time into its segments and returns the median over the
// quiet segments (see maxSteal) of each figure.
func segmentStats(o observed, d time.Duration) windowStats {
	n := len(o.marks) - 1
	slices := make([][]float64, n)
	for _, op := range o.ops {
		i := min(int(int64(op.done)*int64(n)/int64(d)), n-1)
		slices[i] = append(slices[i], float64(op.latency)/float64(time.Millisecond))
	}
	type segment struct {
		p50, p90, rate, allocKB float64
		quiet                   bool
	}
	var segs []segment
	var log strings.Builder
	quiet := 0
	for i, ms := range slices {
		if len(ms) == 0 {
			continue
		}
		length := d.Seconds() / float64(n)
		if i == n-1 {
			length = o.elapsed.Seconds() - float64(n-1)*length
		}
		sort.Float64s(ms)
		steal := stealShare(o.marks[i].cpu, o.marks[i+1].cpu)
		s := segment{
			p50:     quantile(ms, 0.50),
			p90:     quantile(ms, 0.90),
			rate:    float64(len(ms)) / length,
			allocKB: float64(o.marks[i+1].allocs-o.marks[i].allocs) / 1024 / float64(len(ms)),
			quiet:   steal <= maxSteal,
		}
		fmt.Fprintf(&log, " %.1f%%/%.4g", 100*steal, s.rate)
		if s.quiet {
			quiet++
		}
		segs = append(segs, s)
	}
	var p50s, p90s, rates, allocs []float64
	for _, s := range segs {
		if s.quiet || 2*quiet < len(segs) {
			p50s = append(p50s, s.p50)
			p90s = append(p90s, s.p90)
			rates = append(rates, s.rate)
			allocs = append(allocs, s.allocKB)
		}
	}
	return windowStats{p50: median(p50s), p90: median(p90s), rate: median(rates), allocKB: median(allocs),
		used: len(p50s), segments: log.String()}
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle of values (which it sorts in place).
func median(values []float64) float64 {
	sort.Float64s(values)
	return quantile(values, 0.5)
}
