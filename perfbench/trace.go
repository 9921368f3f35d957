package main

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/inca-arch/inca/internal/cluster"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// Spans the benchmark itself records around its calls into the program:
// one per operation, and one around each training call.
const (
	spanOp    = "bench/op"
	spanTrain = "bench/train"
)

// layer is one stage of the stack a request crosses. Every span the
// program or the benchmark emits is attributed to one layer.
type layer int

const (
	layerClient   layer = iota // the benchmark's caller: encode, loopback transport, decode
	layerServe                 // HTTP service: decode, admission, plan compile, encode
	layerDispatch              // cluster coordinator's per-shard scatter/gather
	layerEngine                // sweep engine and memo cache
	layerSim                   // analytical simulator
	layerTrain                 // training engine (forward, backward, update, device noise)
	numLayers
)

var spanLayer = map[string]layer{
	spanOp:               layerClient,
	spanTrain:            layerTrain,
	serve.SpanRequest:    layerServe,
	cluster.SpanDispatch: layerDispatch,
	sweep.SpanCell:       layerEngine,
	sweep.SpanAttempt:    layerEngine,
	sim.SpanSimulate:     layerSim,
	sim.SpanLayer:        layerSim,
}

// spanRec is the compact form the recorder keeps of each span: enough
// to rebuild parent/child intervals after the run without holding the
// program's attributes, events and counters in memory.
type spanRec struct {
	trace, id, parent uint64
	start, end        int64 // unix ns
	wait              int64 // sweep/cell queue wait, ns
	layer             layer
	cell, dispatch    bool
}

// recorder is the traced run's span sink. Spans are kept only while
// recording is on (the measured window) and are folded into per-layer
// self times when the run ends.
type recorder struct {
	tracer *obs.Tracer
	on     atomic.Bool
	mu     sync.Mutex
	recs   []spanRec
}

func newRecorder() *recorder {
	r := &recorder{}
	r.tracer = obs.NewTracer(obs.WithSink(r))
	return r
}

func (r *recorder) start() {
	if r != nil {
		r.on.Store(true)
	}
}

func (r *recorder) stop() {
	if r != nil {
		r.on.Store(false)
	}
}

// startOp opens the benchmark's span for one operation; a nil recorder
// returns a nil span, whose methods do nothing.
func (r *recorder) startOp() (context.Context, *obs.Span) {
	if r == nil {
		return context.Background(), nil
	}
	return r.tracer.Start(context.Background(), spanOp)
}

// Emit implements obs.Sink.
func (r *recorder) Emit(sd obs.SpanData) {
	if !r.on.Load() {
		return
	}
	// A span no layer claims is not kept; its time counts as its
	// parent's.
	l, ok := spanLayer[sd.Name]
	if !ok {
		return
	}
	rec := spanRec{
		trace:    hexID(sd.TraceID),
		id:       hexID(sd.SpanID),
		parent:   hexID(sd.ParentID),
		start:    sd.Start.UnixNano(),
		end:      sd.End.UnixNano(),
		layer:    l,
		cell:     sd.Name == sweep.SpanCell,
		dispatch: sd.Name == cluster.SpanDispatch,
	}
	if rec.cell {
		if v, ok := sd.Attr("queue_wait_s"); ok {
			if s, ok := v.(float64); ok {
				rec.wait = int64(s * 1e9)
			}
		}
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// hexID folds a hex trace or span ID into 64 bits (its last 16 digits).
func hexID(s string) uint64 {
	if len(s) > 16 {
		s = s[len(s)-16:]
	}
	v, _ := strconv.ParseUint(s, 16, 64)
	return v
}

// layerTotals is the recorded window folded per layer.
type layerTotals struct {
	self       [numLayers]time.Duration
	wait       time.Duration
	cells      int64
	dispatches int64
}

// aggregate computes each span's self time — its duration minus the
// part of its interval its children cover — and sums it per layer.
func (r *recorder) aggregate() layerTotals {
	var t layerTotals
	if r == nil {
		return t
	}
	r.mu.Lock()
	recs := r.recs
	r.recs = nil
	r.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].trace != recs[j].trace {
			return recs[i].trace < recs[j].trace
		}
		return recs[i].start < recs[j].start
	})
	for lo := 0; lo < len(recs); {
		hi := lo
		for hi < len(recs) && recs[hi].trace == recs[lo].trace {
			hi++
		}
		group := recs[lo:hi]
		kids := make(map[uint64][]int)
		for i, s := range group {
			if s.parent != 0 {
				kids[s.parent] = append(kids[s.parent], i)
			}
		}
		for _, s := range group {
			self := s.end - s.start - covered(group, kids[s.id], s.start, s.end)
			t.self[s.layer] += time.Duration(self)
			t.wait += time.Duration(s.wait)
			if s.cell {
				t.cells++
			}
			if s.dispatch {
				t.dispatches++
			}
		}
		lo = hi
	}
	return t
}

// covered returns how much of [lo, hi) the given children cover, with
// overlapping children (cells running in parallel) counted once. The
// children arrive sorted by start time.
func covered(group []spanRec, kids []int, lo, hi int64) int64 {
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(group[k].start, lo), min(group[k].end, hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s, e
		case e > curEnd:
			curEnd = e
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// layerMetrics renders the per-layer figures of a traced run, each
// normalized per completed operation (ops) unless its name says
// otherwise.
func layerMetrics(t layerTotals, c counters, ops float64) map[string]metric {
	msPerOp := func(d time.Duration) metric {
		return metric{float64(d) / float64(time.Millisecond) / ops, "ms"}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	lookups := float64(c.hits + c.misses)
	return map[string]metric{
		"client_ms_per_op":       msPerOp(t.self[layerClient]),
		"serve_ms_per_op":        msPerOp(t.self[layerServe]),
		"dispatch_ms_per_op":     msPerOp(t.self[layerDispatch]),
		"engine_ms_per_op":       msPerOp(t.self[layerEngine]),
		"sim_ms_per_op":          msPerOp(t.self[layerSim]),
		"train_ms_per_op":        msPerOp(t.self[layerTrain]),
		"queue_wait_ms_per_op":   msPerOp(t.wait),
		"engine_us_per_cell":     {ratio(float64(t.self[layerEngine])/float64(time.Microsecond), float64(t.cells)), "us"},
		"dispatches_per_op":      {float64(t.dispatches) / ops, "count"},
		"cache_hit_ratio":        {ratio(float64(c.hits), lookups), "ratio"},
		"coalesced_per_op":       {float64(c.coalesced) / ops, "count"},
		"cache_misses_per_op":    {float64(c.misses) / ops, "count"},
		"store_puts_per_op":      {float64(c.storePuts) / ops, "count"},
		"kernel_calls_per_op":    {float64(c.kernels.Invocations) / ops, "count"},
		"kernel_chunks_per_call": {ratio(float64(c.kernels.Chunks), float64(c.kernels.Invocations)), "count"},
	}
}
