package tensor

import (
	"runtime"
	"sync"
)

// Kernel parallelism
//
// Every parallel kernel in this package (Conv2D, Im2Col, MatMul,
// ConvBackwardInput and ConvBackwardWeights) draws its workers from one shared,
// process-wide budget. The budget is a token pool holding budget-1 tokens:
// a kernel call always runs on its calling goroutine and additionally
// takes as many tokens as it can use without blocking, returning them when
// the call completes. Because every concurrent kernel call — including
// calls made from the sweep engine's worker pool or train's batch
// evaluation — competes for the same tokens, nested parallelism cannot
// multiply: total extra kernel goroutines never exceed budget-1 no matter
// how many goroutines enter kernels at once.
//
// Work is always split into contiguous index chunks and every output
// element is computed entirely by one goroutine with the same inner-loop
// order as the serial code, so results are byte-identical to serial
// execution for any budget.

var pool struct {
	mu    sync.Mutex
	limit int           // configured budget; <= 0 tracks GOMAXPROCS(0)
	extra chan struct{} // budget-1 extra-worker tokens
}

// Parallelism reports the current kernel worker budget: the value set by
// SetParallelism, or runtime.GOMAXPROCS(0) when unset.
func Parallelism() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return effectiveLimitLocked()
}

func effectiveLimitLocked() int {
	if pool.limit > 0 {
		return pool.limit
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the worker budget shared by every parallel kernel
// and returns the previous configured value (0 if the budget was tracking
// GOMAXPROCS). n <= 0 restores GOMAXPROCS tracking. The budget is
// process-wide: layers that fan work out over their own goroutines (the
// sweep engine, batch evaluation) share it with the kernels they call, so
// the machine is never oversubscribed.
//
// Tokens already held by running kernels are unaffected; the new budget
// applies to subsequent kernel calls.
func SetParallelism(n int) int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	prev := pool.limit
	if n < 0 {
		n = 0
	}
	pool.limit = n
	pool.extra = nil // rebuilt lazily at the new size
	return prev
}

// semLocked returns the token channel, rebuilding it when the budget
// changed. Kernels release tokens into the channel they acquired from, so
// a rebuild never loses or duplicates tokens.
func semLocked() chan struct{} {
	want := effectiveLimitLocked() - 1
	if want < 0 {
		want = 0
	}
	if pool.extra == nil || cap(pool.extra) != want {
		pool.extra = make(chan struct{}, want)
		for i := 0; i < want; i++ {
			pool.extra <- struct{}{}
		}
	}
	return pool.extra
}

// acquireWorkers takes up to want extra-worker tokens without blocking and
// returns how many it got plus a release function. Non-blocking
// acquisition is what makes nesting safe: an inner kernel that finds the
// pool drained simply runs serially instead of deadlocking or spawning
// beyond the budget.
func acquireWorkers(want int) (got int, release func()) {
	pool.mu.Lock()
	sem := semLocked()
	pool.mu.Unlock()
	for got < want {
		select {
		case <-sem:
			got++
		default:
			want = got
		}
	}
	n := got
	return got, func() {
		for i := 0; i < n; i++ {
			sem <- struct{}{}
		}
	}
}

// ParallelChunks splits [0, n) into contiguous chunks — one per worker the
// shared budget grants, at most min(Parallelism(), n) — and runs body on
// each, concurrently. Chunk 0 runs on the calling goroutine. body receives
// its chunk index and half-open range [lo, hi). It returns the number of
// chunks used (1 means the call ran serially).
//
// Higher layers that parallelize over whole units of work (train's batch
// evaluation) use this entry point so their goroutines and the kernels'
// draw from one budget.
func ParallelChunks(n int, body func(chunk, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	chunks := parallelChunks(n, body)
	if s := statsHook.Load(); s != nil {
		s.record(n, chunks)
	}
	return chunks
}

func parallelChunks(n int, body func(chunk, lo, hi int)) int {
	want := Parallelism()
	if want > n {
		want = n
	}
	if want <= 1 {
		body(0, 0, n)
		return 1
	}
	got, release := acquireWorkers(want - 1)
	if got == 0 {
		release()
		body(0, 0, n)
		return 1
	}
	defer release()
	chunks := got + 1
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, c*n/chunks, (c+1)*n/chunks)
		}(c)
	}
	body(0, 0, n/chunks)
	wg.Wait()
	return chunks
}

// minParallelFlops is the approximate amount of per-call work below which
// splitting is pure overhead; small kernels (the accuracy experiments' 16
// x 16 images) stay serial.
const minParallelFlops = 1 << 16

// serialFor reports whether n items of about flopsPerItem work each are
// too little to split, counting the call in the kernel stats when they
// are. A kernel then calls its body directly over [0, n): the closure it
// hands parallelFor escapes to the heap, so it is built only for work
// that may split.
func serialFor(n int, flopsPerItem int64) bool {
	if flopsPerItem*int64(n) >= minParallelFlops {
		return false
	}
	if s := statsHook.Load(); s != nil && n > 0 {
		s.record(n, 1)
	}
	return true
}

// parallelFor runs body over contiguous sub-ranges of [0, n) on up to
// Parallelism() workers. flopsPerItem is a rough work estimate per index
// used to keep small problems serial. body must write only to output
// elements owned by its range so chunking is race-free, and must keep the
// serial inner-loop order so results are byte-identical at any budget.
func parallelFor(n int, flopsPerItem int64, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if serialFor(n, flopsPerItem) {
		body(0, n)
		return
	}
	ParallelChunks(n, func(_, lo, hi int) { body(lo, hi) })
}
