package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestIntoMatchesAllocating holds every Into form to its allocating form
// bit for bit: with a nil destination; with a destination of the right
// shape, which is returned as the same tensor and whose stale contents
// (NaN, so any element the kernel fails to write, or accumulates onto,
// shows) must not leak into the result; and with a destination of the
// wrong shape, which is left alone for a fresh tensor.
func TestIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := Randn(rng, 1, 3, 9, 9)
	w := Randn(rng, 1, 4, 3, 3, 3)
	spec := ConvSpec{Stride: 2, Pad: 1}
	delta := sparseTensor(rng, 4, 5, 5)
	grad := Randn(rng, 1, 3, 9, 9)
	a := Randn(rng, 1, 6, 7)
	v6, v7 := sparseTensor(rng, 6), Randn(rng, 1, 7)
	cases := []struct {
		name  string
		alloc func() *Tensor
		into  func(dst *Tensor) *Tensor
	}{
		{"Conv2D", func() *Tensor { return Conv2D(x, w, spec) },
			func(d *Tensor) *Tensor { return Conv2DInto(d, x, w, spec) }},
		{"ConvBackwardInput", func() *Tensor { return ConvBackwardInput(w, delta, spec, 9, 9) },
			func(d *Tensor) *Tensor { return ConvBackwardInputInto(d, w, delta, spec, 9, 9) }},
		{"ConvBackwardWeights", func() *Tensor { return ConvBackwardWeights(x, delta, spec, 3, 3) },
			func(d *Tensor) *Tensor { return ConvBackwardWeightsInto(d, x, delta, spec, 3, 3) }},
		{"MaxPool2D", func() *Tensor { return MaxPool2D(x, 2, 2).Out },
			func(d *Tensor) *Tensor { return MaxPool2DInto(MaxPoolResult{Out: d}, x, 2, 2).Out }},
		{"MatVec", func() *Tensor { return MatVec(a, v7) },
			func(d *Tensor) *Tensor { return MatVecInto(d, a, v7) }},
		{"MatVecT", func() *Tensor { return MatVecT(a, v6) },
			func(d *Tensor) *Tensor { return MatVecTInto(d, a, v6) }},
		{"Outer", func() *Tensor { return Outer(v6, v7) },
			func(d *Tensor) *Tensor { return OuterInto(d, v6, v7) }},
		{"Softmax", func() *Tensor { return Softmax(v7) },
			func(d *Tensor) *Tensor { return SoftmaxInto(d, v7) }},
		{"ReLU", func() *Tensor { return ReLU(x) },
			func(d *Tensor) *Tensor { return ReLUInto(d, x) }},
		{"ReLUBackward", func() *Tensor { return ReLUBackward(x, grad) },
			func(d *Tensor) *Tensor { return ReLUBackwardInto(d, x, grad) }},
		{"Reshape", func() *Tensor { return x.Reshape(27, 9) },
			func(d *Tensor) *Tensor { return x.ReshapeInto(d, 27, 9) }},
	}
	for _, c := range cases {
		want := c.alloc()
		if got := c.into(nil); !bitsEqual(got, want) {
			t.Errorf("%s: nil destination differs from the allocating form", c.name)
		}
		stale := want.Clone()
		stale.Fill(math.NaN())
		if got := c.into(stale); got != stale || !bitsEqual(got, want) {
			t.Errorf("%s: stale destination of the right shape: reused %v, bits equal %v",
				c.name, got == stale, bitsEqual(got, want))
		}
		wrong := New(want.Len() + 1)
		if got := c.into(wrong); got == wrong || !bitsEqual(got, want) {
			t.Errorf("%s: wrong-shape destination: reused %v, bits equal %v",
				c.name, got == wrong, bitsEqual(got, want))
		}
	}
}

// TestMaxPool2DIntoReusesArgMax checks the argmax table's reuse, which
// the table above cannot see.
func TestMaxPool2DIntoReusesArgMax(t *testing.T) {
	x := Randn(rand.New(rand.NewSource(4)), 1, 2, 6, 6)
	want := MaxPool2D(x, 2, 2)
	dst := MaxPool2D(x, 3, 3)
	dst.ArgMax = make([]int, len(want.ArgMax))
	for i := range dst.ArgMax {
		dst.ArgMax[i] = -1
	}
	got := MaxPool2DInto(dst, x, 2, 2)
	if &got.ArgMax[0] != &dst.ArgMax[0] || !slices.Equal(got.ArgMax, want.ArgMax) {
		t.Fatalf("argmax of the right length: reused %v, got %v, want %v",
			&got.ArgMax[0] == &dst.ArgMax[0], got.ArgMax, want.ArgMax)
	}
	if got.Out == dst.Out || !bitsEqual(got.Out, want.Out) {
		t.Fatal("an output of the wrong shape must be replaced")
	}
	short := want.ArgMax[:len(want.ArgMax)-1]
	if got := MaxPool2DInto(MaxPoolResult{ArgMax: short}, x, 2, 2); !slices.Equal(got.ArgMax, want.ArgMax) {
		t.Fatalf("argmax of the wrong length: got %v, want %v", got.ArgMax, want.ArgMax)
	}
}

// Regression: pooling had no geometry check, so a window taller than the
// input indexed past it and a zero stride divided by zero.
func TestPoolingGeometryRejected(t *testing.T) {
	x := New(2, 1, 3)
	for _, pool := range []struct {
		name string
		f    func(x *Tensor, k, stride int)
	}{
		{"MaxPool2D", func(x *Tensor, k, s int) { MaxPool2D(x, k, s) }},
		{"AvgPool2D", func(x *Tensor, k, s int) { AvgPool2D(x, k, s) }},
	} {
		mustPanicContaining(t, pool.name+" window 2x2 larger than input 1x3 (x [2 1 3])",
			func() { pool.f(x, 2, 2) })
		mustPanicContaining(t, "stride 0 must be at least 1", func() { pool.f(x, 1, 0) })
		mustPanicContaining(t, "window 0x0", func() { pool.f(x, 0, 1) })
		pool.f(x, 1, 1) // a window that fits is legal
	}
}
