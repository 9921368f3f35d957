package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// numericalGrad computes d(loss)/d(param[i]) via central differences, where
// loss = sum(forward(param)).
func numericalGrad(param *Tensor, forward func() *Tensor) *Tensor {
	const eps = 1e-5
	g := New(param.Dims()...)
	for i := range param.Data() {
		orig := param.Data()[i]
		param.Data()[i] = orig + eps
		up := forward().Sum()
		param.Data()[i] = orig - eps
		down := forward().Sum()
		param.Data()[i] = orig
		g.Data()[i] = (up - down) / (2 * eps)
	}
	return g
}

func checkClose(t *testing.T, name string, got, want *Tensor, tol float64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length mismatch %v vs %v", name, got.Dims(), want.Dims())
	}
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > tol {
			t.Fatalf("%s: element %d: got %v, want %v", name, i, got.Data()[i], want.Data()[i])
		}
	}
}

// TestConvBackwardInputNumerical verifies the analytic full-convolution
// backward pass (Eq. 3) against central differences for several geometries,
// including strided, padded and non-square kernels.
func TestConvBackwardInputNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ c, h, w, n, kh, kw, s, p int }{
		{1, 5, 5, 1, 3, 3, 1, 0},
		{2, 6, 6, 3, 3, 3, 1, 1},
		{2, 7, 7, 2, 3, 3, 2, 1},
		{1, 8, 8, 2, 2, 2, 2, 0},
		{3, 5, 5, 2, 1, 1, 1, 0},
		{2, 6, 6, 2, 3, 2, 1, 1},
		{2, 6, 6, 2, 2, 3, 1, 1},
		{2, 6, 6, 2, 1, 3, 1, 1},
		{2, 6, 6, 2, 3, 1, 1, 1},
		{2, 7, 6, 3, 3, 2, 2, 1},
		{1, 6, 7, 2, 1, 3, 2, 0},
	}
	for _, cse := range cases {
		x := Randn(rng, 1, cse.c, cse.h, cse.w)
		w := Randn(rng, 1, cse.n, cse.c, cse.kh, cse.kw)
		spec := ConvSpec{Stride: cse.s, Pad: cse.p}
		// loss = sum(conv(x, w)); dL/dy = ones.
		y := Conv2D(x, w, spec)
		ones := New(y.Dims()...)
		ones.Fill(1)
		analytic := ConvBackwardInput(w, ones, spec, cse.h, cse.w)
		numeric := numericalGrad(x, func() *Tensor { return Conv2D(x, w, spec) })
		checkClose(t, fmt.Sprintf("ConvBackwardInput %+v", cse), analytic, numeric, 1e-6)
	}
}

// TestConvBackwardWeightsNumerical verifies the weight-gradient convolution
// (Eq. 4) against central differences, non-square kernels included.
func TestConvBackwardWeightsNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct{ c, h, w, n, kh, kw, s, p int }{
		{1, 5, 5, 1, 3, 3, 1, 0},
		{2, 6, 6, 3, 3, 3, 1, 1},
		{2, 7, 7, 2, 3, 3, 2, 1},
		{3, 4, 4, 2, 1, 1, 1, 0},
		{2, 6, 6, 2, 3, 2, 1, 1},
		{2, 6, 6, 2, 2, 3, 1, 1},
		{2, 6, 6, 2, 1, 3, 1, 1},
		{2, 6, 6, 2, 3, 1, 1, 1},
		{2, 7, 6, 3, 3, 2, 2, 1},
		{1, 6, 7, 2, 1, 3, 2, 0},
	}
	for _, cse := range cases {
		x := Randn(rng, 1, cse.c, cse.h, cse.w)
		w := Randn(rng, 1, cse.n, cse.c, cse.kh, cse.kw)
		spec := ConvSpec{Stride: cse.s, Pad: cse.p}
		y := Conv2D(x, w, spec)
		ones := New(y.Dims()...)
		ones.Fill(1)
		analytic := ConvBackwardWeights(x, ones, spec, cse.kh, cse.kw)
		numeric := numericalGrad(w, func() *Tensor { return Conv2D(x, w, spec) })
		checkClose(t, fmt.Sprintf("ConvBackwardWeights %+v", cse), analytic, numeric, 1e-6)
	}
}

func TestFCBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(rng, 1, 4, 6) // weights [out, in]
	x := Randn(rng, 1, 6)

	// d(sum(a x))/dx = column sums of a = aT * ones.
	ones := New(4)
	ones.Fill(1)
	dx := MatVecT(a, ones)
	numX := numericalGrad(x, func() *Tensor { return MatVec(a, x) })
	checkClose(t, "FC dX", dx, numX, 1e-6)

	// d(sum(a x))/da = ones ⊗ x.
	dw := Outer(ones, x)
	numW := numericalGrad(a, func() *Tensor { return MatVec(a, x) })
	checkClose(t, "FC dW", dw, numW, 1e-6)
}
