package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.At(0, 0, 0); got != 0 {
		t.Fatalf("untouched element = %v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestArithmetic(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	y := FromSlice([]float64{10, 20, 30, 40}, 4)
	x.AddInPlace(y)
	want := []float64{11, 22, 33, 44}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, v, want[i])
		}
	}
	x.SubInPlace(y)
	for i, v := range x.Data() {
		if v != float64(i+1) {
			t.Fatalf("SubInPlace[%d] = %v, want %v", i, v, i+1)
		}
	}
	x.Scale(2)
	if x.At(3) != 8 {
		t.Fatalf("Scale: got %v, want 8", x.At(3))
	}
	x.AXPYInPlace(0.5, y)
	if x.At(0) != 2+5 {
		t.Fatalf("AXPY: got %v, want 7", x.At(0))
	}
}

func TestHadamardAndSum(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := FromSlice([]float64{4, 5, 6}, 3)
	x.Hadamard(y)
	if x.At(2) != 18 {
		t.Fatalf("Hadamard: got %v, want 18", x.At(2))
	}
	if s := x.Sum(); s != 4+10+18 {
		t.Fatalf("Sum = %v, want 32", s)
	}
}

func TestMaxAbs(t *testing.T) {
	x := FromSlice([]float64{-5, 2, 3}, 3)
	if m := x.MaxAbs(); m != 5 {
		t.Fatalf("MaxAbs = %v, want 5", m)
	}
	if m := New(0).MaxAbs(); m != 0 {
		t.Fatalf("empty MaxAbs = %v, want 0", m)
	}
}

func TestConvSpecOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{224, 3, 1, 1, 224},
		{224, 7, 2, 3, 112},
		{32, 3, 1, 0, 30},
		{28, 2, 2, 0, 14},
		{14, 1, 1, 0, 14},
	}
	for _, c := range cases {
		got := ConvSpec{Stride: c.s, Pad: c.p}.OutSize(c.in, c.k)
		if got != c.want {
			t.Errorf("OutSize(%d,k=%d,s=%d,p=%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// TestConv2DKnown checks a hand-computed 1-channel convolution.
func TestConv2DKnown(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := FromSlice([]float64{
		1, 0,
		0, 1,
	}, 1, 1, 2, 2)
	y := Conv2D(x, w, ConvSpec{Stride: 1})
	want := FromSlice([]float64{
		1 + 5, 2 + 6,
		4 + 8, 5 + 9,
	}, 1, 2, 2)
	if !y.Equal(want, 1e-12) {
		t.Fatalf("Conv2D = %v, want %v", y, want)
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	w := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2) // sum kernel
	y := Conv2D(x, w, ConvSpec{Stride: 2, Pad: 1})
	// Padded input is 4x4 with the image at center; windows at (0,0),(0,2),(2,0),(2,2).
	want := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	if !y.Equal(want, 1e-12) {
		t.Fatalf("Conv2D pad/stride = %v, want %v", y, want)
	}
}

func TestConv2DChannelAccumulation(t *testing.T) {
	// Two input channels with 1x1 kernels: output = 2*c0 + 3*c1.
	x := FromSlice([]float64{
		1, 2, 3, 4, // channel 0
		10, 20, 30, 40, // channel 1
	}, 2, 2, 2)
	w := FromSlice([]float64{2, 3}, 1, 2, 1, 1)
	y := Conv2D(x, w, ConvSpec{Stride: 1})
	want := FromSlice([]float64{32, 64, 96, 128}, 1, 2, 2)
	if !y.Equal(want, 1e-12) {
		t.Fatalf("Conv2D channels = %v, want %v", y, want)
	}
}

// TestConvDirectEqualsIm2Col is the core equivalence the INCA design rests
// on: direct convolution (2T1R array) and GEMM-based convolution (WS
// unrolling) must compute identical results.
func TestConvDirectEqualsIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ c, h, w, n, k, s, p int }{
		{1, 5, 5, 1, 3, 1, 0},
		{3, 8, 8, 4, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 1},
		{4, 6, 6, 2, 1, 1, 0},
		{3, 10, 10, 5, 5, 2, 2},
		{2, 9, 9, 3, 3, 3, 0},
	}
	for _, cse := range cases {
		x := Randn(rng, 1, cse.c, cse.h, cse.w)
		w := Randn(rng, 1, cse.n, cse.c, cse.k, cse.k)
		spec := ConvSpec{Stride: cse.s, Pad: cse.p}
		direct := Conv2D(x, w, spec)
		gemm := Conv2DIm2Col(x, w, spec)
		if !direct.Equal(gemm, 1e-9) {
			t.Errorf("direct != im2col for case %+v", cse)
		}
	}
}

func TestIm2ColShape(t *testing.T) {
	x := New(3, 8, 8)
	cols := Im2Col(x, 3, 3, ConvSpec{Stride: 1, Pad: 1})
	if cols.Dim(0) != 27 || cols.Dim(1) != 64 {
		t.Fatalf("Im2Col dims = %v, want [27 64]", cols.Dims())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := FromSlice([]float64{19, 22, 43, 50}, 2, 2)
	if !c.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c, want)
	}
}

func TestRot180Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Randn(rng, 1, 3, 4, 3, 3)
	ww := Rot180(Rot180(w))
	if !w.Equal(ww, 0) {
		t.Fatal("Rot180 applied twice is not the identity")
	}
}

func TestRot180SwapsAxes(t *testing.T) {
	w := New(2, 3, 1, 1)
	w.Set(7, 1, 2, 0, 0)
	wt := Rot180(w)
	if wt.Dim(0) != 3 || wt.Dim(1) != 2 {
		t.Fatalf("Rot180 dims = %v, want [3 2 1 1]", wt.Dims())
	}
	if wt.At(2, 1, 0, 0) != 7 {
		t.Fatal("Rot180 did not transpose N and C axes")
	}
}

func TestPadAndCrop(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	p := Pad(x, 1, 1)
	if p.Dim(1) != 4 || p.Dim(2) != 4 {
		t.Fatalf("Pad dims = %v", p.Dims())
	}
	if p.At(0, 0, 0) != 0 || p.At(0, 1, 1) != 1 || p.At(0, 2, 2) != 4 {
		t.Fatal("Pad misplaced data")
	}
	if !holds(p, x, 1, 1) {
		t.Fatal("Pad(x, 1, 1) does not hold x at offset (1, 1)")
	}
	p = Pad(x, 2, 1)
	if p.Dim(1) != 6 || p.Dim(2) != 4 || !holds(p, x, 2, 1) {
		t.Fatalf("Pad(x, 2, 1) = %v, want x inside 2 rows and 1 column of zeros", p.Data())
	}
}

// holds reports whether p contains x's rows and columns starting at
// offset (oy, ox) in every channel.
func holds(p, x *Tensor, oy, ox int) bool {
	for c := 0; c < x.Dim(0); c++ {
		for y := 0; y < x.Dim(1); y++ {
			for xx := 0; xx < x.Dim(2); xx++ {
				if p.At(c, oy+y, ox+xx) != x.At(c, y, xx) {
					return false
				}
			}
		}
	}
	return true
}

func TestDilate(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	d := Dilate(x, 2)
	if d.Dim(1) != 3 || d.Dim(2) != 3 {
		t.Fatalf("Dilate dims = %v, want [1 3 3]", d.Dims())
	}
	if d.At(0, 0, 0) != 1 || d.At(0, 0, 2) != 2 || d.At(0, 2, 2) != 4 || d.At(0, 1, 1) != 0 {
		t.Fatal("Dilate misplaced data")
	}
	if got := Dilate(x, 1); !got.Equal(x, 0) {
		t.Fatal("Dilate stride 1 should be identity")
	}
}

func TestMaxPool(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 5, 3,
		4, 8, 6, 7,
		1, 1, 2, 2,
		3, 1, 2, 9,
	}, 1, 4, 4)
	res := MaxPool2D(x, 2, 2)
	want := FromSlice([]float64{8, 7, 3, 9}, 1, 2, 2)
	if !res.Out.Equal(want, 0) {
		t.Fatalf("MaxPool2D = %v, want %v", res.Out, want)
	}
	// Backward: gradient goes only to argmax positions.
	delta := FromSlice([]float64{1, 1, 1, 1}, 1, 2, 2)
	dx := MaxPoolBackward(res, delta, []int{1, 4, 4})
	if dx.Sum() != 4 {
		t.Fatalf("MaxPoolBackward sum = %v, want 4", dx.Sum())
	}
	if dx.At(0, 1, 1) != 1 || dx.At(0, 3, 3) != 1 {
		t.Fatal("MaxPoolBackward routed gradient to wrong positions")
	}
	if dx.At(0, 0, 0) != 0 {
		t.Fatal("non-max position received gradient")
	}
}

func TestAvgAndGlobalPool(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	a := AvgPool2D(x, 2, 2)
	if a.At(0, 0, 0) != 2.5 {
		t.Fatalf("AvgPool2D = %v, want 2.5", a.At(0, 0, 0))
	}
	g := GlobalAvgPool2D(x)
	if g.At(0) != 2.5 {
		t.Fatalf("GlobalAvgPool2D = %v, want 2.5", g.At(0))
	}
}

func TestReLUAndBackward(t *testing.T) {
	x := FromSlice([]float64{-1, 0, 2}, 3)
	y := ReLU(x)
	if y.At(0) != 0 || y.At(1) != 0 || y.At(2) != 2 {
		t.Fatalf("ReLU = %v", y)
	}
	delta := FromSlice([]float64{5, 5, 5}, 3)
	dx := ReLUBackward(x, delta)
	if dx.At(0) != 0 || dx.At(1) != 0 || dx.At(2) != 5 {
		t.Fatalf("ReLUBackward = %v", dx)
	}
}

func TestSoftmax(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	s := Softmax(x)
	if math.Abs(s.Sum()-1) > 1e-12 {
		t.Fatalf("softmax sum = %v, want 1", s.Sum())
	}
	if !(s.At(2) > s.At(1) && s.At(1) > s.At(0)) {
		t.Fatal("softmax not monotone")
	}
	// Stability under large inputs.
	big := FromSlice([]float64{1000, 1001, 1002}, 3)
	sb := Softmax(big)
	if math.IsNaN(sb.Sum()) || math.Abs(sb.Sum()-1) > 1e-9 {
		t.Fatalf("softmax unstable: sum = %v", sb.Sum())
	}
}

func TestMatVecAndTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 1, 1}, 3)
	y := MatVec(a, x)
	if y.At(0) != 6 || y.At(1) != 15 {
		t.Fatalf("MatVec = %v", y)
	}
	v := FromSlice([]float64{1, 2}, 2)
	z := MatVecT(a, v)
	// aT*v = [1+8, 2+10, 3+12]
	if z.At(0) != 9 || z.At(1) != 12 || z.At(2) != 15 {
		t.Fatalf("MatVecT = %v", z)
	}
}

func TestOuter(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{3, 4, 5}, 3)
	o := Outer(x, y)
	if o.At(1, 2) != 10 || o.At(0, 0) != 3 {
		t.Fatalf("Outer = %v", o)
	}
}
