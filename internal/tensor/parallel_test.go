package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// withParallelism runs f under a temporary kernel worker budget.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

// bitsEqual compares two tensors for exact bit equality (tolerances would
// hide reduction-order drift, the thing these tests exist to catch).
func bitsEqual(a, b *Tensor) bool {
	if len(a.Dims()) != len(b.Dims()) {
		return false
	}
	for i := range a.Dims() {
		if a.Dim(i) != b.Dim(i) {
			return false
		}
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// budgets exercises the worker counts the issue calls out: serial,
// GOMAXPROCS, and more workers than items.
func budgets(items int) []int {
	return []int{1, runtime.GOMAXPROCS(0), items + 7}
}

func TestSetParallelismRoundTrip(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if back := SetParallelism(0); back != 3 {
		t.Fatalf("SetParallelism returned %d, want previous value 3", back)
	}
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("unset budget = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestAcquireWorkersBoundedByBudget(t *testing.T) {
	withParallelism(t, 4, func() {
		got, release := acquireWorkers(100)
		if got != 3 {
			t.Fatalf("acquired %d extra workers under budget 4, want 3", got)
		}
		// A nested acquisition sees a drained pool and runs serially.
		nested, nestedRelease := acquireWorkers(100)
		if nested != 0 {
			t.Fatalf("nested acquisition got %d workers, want 0 (pool drained)", nested)
		}
		nestedRelease()
		release()
		// Tokens come back after release.
		again, againRelease := acquireWorkers(2)
		defer againRelease()
		if again != 2 {
			t.Fatalf("after release acquired %d, want 2", again)
		}
	})
}

func TestParallelChunksCoversRangeOnce(t *testing.T) {
	withParallelism(t, 4, func() {
		const n = 103
		var mu sync.Mutex
		seen := make([]int, n)
		ParallelChunks(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				mu.Lock()
				seen[i]++
				mu.Unlock()
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
	})
}

// serialConv2D recomputes Conv2D with the pre-parallel reference loop.
func serialConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	n, _, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, ow := spec.OutSize(h, kh), spec.OutSize(wd, kw)
	out := New(n, oh, ow)
	for on := 0; on < n; on++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := 0.0
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*spec.Stride - spec.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*spec.Stride - spec.Pad + kx
							if ix < 0 || ix >= wd {
								continue
							}
							sum += x.At(ic, iy, ix) * w.At(on, ic, ky, kx)
						}
					}
				}
				out.Set(sum, on, oy, ox)
			}
		}
	}
	return out
}

// refConvBackwardInput is the former ConvBackwardInput, kept as a
// reference: the full convolution (by the direct reference loop) of the
// dilated delta, padded by kh-1, with the transposed, 180°-rotated
// kernel, cropped at the spec's padding. It pads both axes by kh-1, so it
// is only right for square kernels.
func refConvBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	wt := Rot180(w) // [C, N, KH, KW]
	kh := w.Dim(2)
	full := serialConv2D(Pad(Dilate(delta, spec.Stride), kh-1, kh-1), wt, ConvSpec{Stride: 1})
	c := wt.Dim(0)
	dx := New(c, inH, inW)
	fh, fw := full.Dim(1), full.Dim(2)
	copyH := min(inH, fh-spec.Pad)
	copyW := min(inW, fw-spec.Pad)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < copyH; y++ {
			srcRow := (ic*fh+y+spec.Pad)*fw + spec.Pad
			dstRow := (ic*inH + y) * inW
			copy(dx.data[dstRow:dstRow+copyW], full.data[srcRow:srcRow+copyW])
		}
	}
	return dx
}

// refConvBackwardWeights is the former ConvBackwardWeights loop, kept as a
// reference: one serial sum per weight over the padded input.
func refConvBackwardWeights(x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	c := x.Dim(0)
	n, oh, ow := delta.Dim(0), delta.Dim(1), delta.Dim(2)
	xp := Pad(x, spec.Pad, spec.Pad)
	dw := New(n, c, kh, kw)
	ph, pw := xp.Dim(1), xp.Dim(2)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					sum := 0.0
					for oy := 0; oy < oh; oy++ {
						iy := oy*spec.Stride + ky
						if iy >= ph {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*spec.Stride + kx
							if ix >= pw {
								continue
							}
							sum += xp.data[(ic*ph+iy)*pw+ix] * delta.data[(in*oh+oy)*ow+ox]
						}
					}
					dw.data[((in*c+ic)*kh+ky)*kw+kx] = sum
				}
			}
		}
	}
	return dw
}

// naiveConvBackwardInput scatters every delta element, zeros included,
// through every in-bounds kernel tap in (in, oy, ox) order. It is the
// reference for ConvBackwardInput when w holds NaN or Inf, where the
// rotated-kernel formulation also multiplies structural zeros by them.
func naiveConvBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, ow := delta.Dim(1), delta.Dim(2)
	dx := New(c, inH, inW)
	for in := 0; in < n; in++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dv := delta.At(in, oy, ox)
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*spec.Stride - spec.Pad + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*spec.Stride - spec.Pad + kx
							if ix < 0 || ix >= inW {
								continue
							}
							dx.Set(dx.At(ic, iy, ix)+dv*w.At(in, ic, ky, kx), ic, iy, ix)
						}
					}
				}
			}
		}
	}
	return dx
}

// serialMatMul is the pre-blocking reference loop (including the av == 0
// skip, which is part of the kernel's semantics).
func serialMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.At(i, p)
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Set(out.At(i, j)+av*b.At(p, j), i, j)
			}
		}
	}
	return out
}

func TestConv2DParallelMatchesSerialBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		c, h, w, n, k int
		spec          ConvSpec
	}{
		{3, 17, 17, 8, 3, ConvSpec{Stride: 1, Pad: 1}},
		{4, 16, 16, 5, 5, ConvSpec{Stride: 2, Pad: 2}},
		{1, 9, 9, 16, 3, ConvSpec{Stride: 1}},
	} {
		x := Randn(rng, 1, tc.c, tc.h, tc.w)
		w := Randn(rng, 1, tc.n, tc.c, tc.k, tc.k)
		want := serialConv2D(x, w, tc.spec)
		for _, budget := range budgets(tc.n) {
			withParallelism(t, budget, func() {
				got := Conv2D(x, w, tc.spec)
				if !bitsEqual(got, want) {
					t.Errorf("Conv2D %+v differs from serial reference at budget %d", tc, budget)
				}
			})
		}
	}
}

func TestMatMulParallelMatchesSerialBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ m, k, n int }{
		{7, 13, 5},
		{33, 64, 700}, // wider than one matMulBlock column tile
		{65, 9, 1030},
	} {
		a := Randn(rng, 1, tc.m, tc.k)
		b := Randn(rng, 1, tc.k, tc.n)
		// Exercise the av == 0 skip path too.
		a.Data()[0] = 0
		a.Data()[len(a.Data())/2] = 0
		want := serialMatMul(a, b)
		for _, budget := range budgets(tc.m) {
			withParallelism(t, budget, func() {
				if got := MatMul(a, b); !bitsEqual(got, want) {
					t.Errorf("MatMul %+v differs from serial reference at budget %d", tc, budget)
				}
			})
		}
	}
}

func TestKernelsBitIdenticalAcrossBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := Randn(rng, 1, 6, 15, 15)
	w := Randn(rng, 1, 10, 6, 3, 3)
	spec := ConvSpec{Stride: 2, Pad: 1}
	delta := Randn(rng, 1, 10, 8, 8)

	type result struct {
		name string
		out  *Tensor
	}
	compute := func() []result {
		return []result{
			{"Conv2D", Conv2D(x, w, spec)},
			{"Im2Col", Im2Col(x, 3, 3, spec)},
			{"Conv2DIm2Col", Conv2DIm2Col(x, w, spec)},
			{"ConvBackwardInput", ConvBackwardInput(w, delta, spec, 15, 15)},
			{"ConvBackwardWeights", ConvBackwardWeights(x, delta, spec, 3, 3)},
		}
	}
	var serial []result
	withParallelism(t, 1, func() { serial = compute() })
	for _, budget := range budgets(16) {
		withParallelism(t, budget, func() {
			for i, r := range compute() {
				if !bitsEqual(r.out, serial[i].out) {
					t.Errorf("%s differs from serial at budget %d", r.name, budget)
				}
			}
		})
	}
}

// TestParallelKernelsConcurrentCallers drives kernels from many goroutines
// at once so the race detector can observe the shared token pool and the
// chunked writers (the tier-1 gate runs with -race).
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := Randn(rng, 1, 4, 12, 12)
	w := Randn(rng, 1, 6, 4, 3, 3)
	spec := ConvSpec{Stride: 1, Pad: 1}
	var want *Tensor
	withParallelism(t, 1, func() { want = Conv2D(x, w, spec) })

	withParallelism(t, runtime.GOMAXPROCS(0), func() {
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 5; iter++ {
					if got := Conv2D(x, w, spec); !bitsEqual(got, want) {
						errs <- fmt.Errorf("concurrent Conv2D diverged")
						return
					}
					if got := MatMul(w.Reshape(6, 36), Im2Col(x, 3, 3, spec)); got.Len() == 0 {
						errs <- fmt.Errorf("concurrent MatMul produced empty result")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

func mustPanicContaining(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	f()
}

// Regression: kernels larger than the padded input used to slip through
// OutSize, producing zero or negative output dims and a confusing index
// panic (or a silently empty tensor) downstream.
func TestKernelLargerThanPaddedInputRejected(t *testing.T) {
	x := New(2, 4, 4)
	wBig := New(3, 2, 7, 7) // 7 > 4 + 2*1
	spec := ConvSpec{Stride: 1, Pad: 1}
	mustPanicContaining(t, "larger than padded input", func() { Conv2D(x, wBig, spec) })
	mustPanicContaining(t, "larger than padded input", func() { Im2Col(x, 7, 7, spec) })
	mustPanicContaining(t, "larger than padded input", func() { Conv2DIm2Col(x, wBig, spec) })
	mustPanicContaining(t, "at least 1x1", func() { Im2Col(x, 0, 3, spec) })

	// A kernel that exactly fills the padded input is legal: 1x1 output.
	out := Conv2D(x, New(3, 2, 6, 6), spec)
	if out.Dim(1) != 1 || out.Dim(2) != 1 {
		t.Fatalf("exact-fit kernel output = %v, want [3 1 1]", out.Dims())
	}
}
