package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The training convolutions hold one operand stationary and feed several
// accumulators from each load, and the backward kernels skip zero deltas.
// These tests hold them to the exactness contract against the former
// loops (serialConv2D, refConvBackwardInput, refConvBackwardWeights):
//
//   - finite operands: every output bit matches the reference;
//   - NaN or Inf in x or w: Conv2D and ConvBackwardWeights still match it;
//   - NaN or Inf in w: ConvBackwardInput matches naiveConvBackwardInput.
//     The former rotated-kernel path deliberately differs there, and only
//     at outputs whose window reaches a padding or dilation position:
//     it multiplies that structural zero by the non-finite weight, so the
//     output it gives is NaN.

// convCase is one convolution geometry with its operands.
type convCase struct {
	x, w, delta *Tensor
	spec        ConvSpec
}

func (c convCase) inH() int { return c.x.Dim(1) }
func (c convCase) inW() int { return c.x.Dim(2) }

// sparseValue returns +0 about a third of the time, −0 about a ninth,
// and a normal deviate otherwise.
func sparseValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(9); {
	case r < 3:
		return 0
	case r == 3:
		return math.Copysign(0, -1)
	default:
		return rng.NormFloat64()
	}
}

func sparseTensor(rng *rand.Rand, dims ...int) *Tensor {
	t := New(dims...)
	for i := range t.data {
		t.data[i] = sparseValue(rng)
	}
	return t
}

// randomKernelCase draws a geometry with stride 1–3, pad 0–2 and kernel
// size 1–5 (square when square is set), large enough now and then for the
// kernels to split across workers.
func randomKernelCase(rng *rand.Rand, square bool) convCase {
	kh := 1 + rng.Intn(5)
	kw := kh
	if !square {
		kw = 1 + rng.Intn(5)
	}
	spec := ConvSpec{Stride: 1 + rng.Intn(3), Pad: rng.Intn(3)}
	c, n := 1+rng.Intn(8), 1+rng.Intn(8)
	h := max(1, kh-2*spec.Pad) + rng.Intn(16)
	w := max(1, kw-2*spec.Pad) + rng.Intn(16)
	oh, ow := spec.OutSize(h, kh), spec.OutSize(w, kw)
	return convCase{
		x:     sparseTensor(rng, c, h, w),
		w:     sparseTensor(rng, n, c, kh, kw),
		delta: sparseTensor(rng, n, oh, ow),
		spec:  spec,
	}
}

// poison overwrites a few random elements of t with NaN or ±Inf.
func poison(rng *rand.Rand, t *Tensor) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 1+rng.Intn(3); i++ {
		t.data[rng.Intn(len(t.data))] = bad[rng.Intn(len(bad))]
	}
}

// sameBits reports whether a and b hold the same shape and bits. NaN
// payloads are not compared: an SSE operation returns the payload of
// whichever NaN operand the compiler placed first.
func sameBits(a, b *Tensor) bool {
	if len(a.Dims()) != len(b.Dims()) {
		return false
	}
	for i := range a.Dims() {
		if a.Dim(i) != b.Dim(i) {
			return false
		}
	}
	for i, v := range a.data {
		u := b.data[i]
		if math.Float64bits(v) != math.Float64bits(u) && !(math.IsNaN(v) && math.IsNaN(u)) {
			return false
		}
	}
	return true
}

// sameBitsOrNaN is sameBits except that any value of got matches a NaN in
// want.
func sameBitsOrNaN(got, want *Tensor) bool {
	masked := got.Clone()
	for i, v := range want.data {
		if math.IsNaN(v) {
			masked.data[i] = v
		}
	}
	return sameBits(masked, want)
}

// checkKernels runs the three training convolutions on c at each worker
// budget and compares them with the references under the exactness
// contract.
func checkKernels(t *testing.T, c convCase, budgets ...int) {
	t.Helper()
	kh, kw := c.w.Dim(2), c.w.Dim(3)
	conv := serialConv2D(c.x, c.w, c.spec)
	dw := refConvBackwardWeights(c.x, c.delta, c.spec, kh, kw)
	dx := naiveConvBackwardInput(c.w, c.delta, c.spec, c.inH(), c.inW())
	// With a non-finite weight the rotated-kernel path may differ, but only
	// where it multiplied a structural zero by it, which made that output
	// NaN.
	var oldDx, oldNaN *Tensor
	if kh == kw {
		if old := refConvBackwardInput(c.w, c.delta, c.spec, c.inH(), c.inW()); allFinite(c.w.data) {
			oldDx = old
		} else {
			oldNaN = old
		}
	}
	for _, budget := range budgets {
		prev := SetParallelism(budget)
		gotConv := Conv2D(c.x, c.w, c.spec)
		gotDw := ConvBackwardWeights(c.x, c.delta, c.spec, kh, kw)
		gotDx := ConvBackwardInput(c.w, c.delta, c.spec, c.inH(), c.inW())
		SetParallelism(prev)
		switch {
		case !sameBits(gotConv, conv):
			t.Fatalf("budget %d: Conv2D x%v w%v %+v differs from the direct loop", budget, c.x.Dims(), c.w.Dims(), c.spec)
		case !sameBits(gotDw, dw):
			t.Fatalf("budget %d: ConvBackwardWeights x%v delta%v %+v differs from the former loop", budget, c.x.Dims(), c.delta.Dims(), c.spec)
		case !sameBits(gotDx, dx):
			t.Fatalf("budget %d: ConvBackwardInput w%v delta%v %+v differs from the naive scatter", budget, c.w.Dims(), c.delta.Dims(), c.spec)
		case oldDx != nil && !sameBits(gotDx, oldDx):
			t.Fatalf("budget %d: ConvBackwardInput w%v delta%v %+v differs from the rotated-kernel path", budget, c.w.Dims(), c.delta.Dims(), c.spec)
		case oldNaN != nil && !sameBitsOrNaN(gotDx, oldNaN):
			t.Fatalf("budget %d: ConvBackwardInput w%v delta%v %+v differs from the rotated-kernel path at a non-NaN output", budget, c.w.Dims(), c.delta.Dims(), c.spec)
		}
	}
}

// TestConvKernelsMatchReferences compares every output bit of the three
// training convolutions with the former loops over random square
// geometries with sparse, signed-zero operands, at budgets 1, GOMAXPROCS
// and more workers than items.
func TestConvKernelsMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		checkKernels(t, randomKernelCase(rng, true), budgets(8)...)
	}
}

// TestConvKernelsNonFinite plants NaN and Inf in x, w and delta, over
// square and non-square kernels.
func TestConvKernelsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		c := randomKernelCase(rng, i%2 == 0)
		for _, op := range []*Tensor{c.x, c.w, c.delta} {
			if rng.Intn(2) == 0 {
				poison(rng, op)
			}
		}
		checkKernels(t, c, budgets(8)...)
	}
}

// fuzzValues are the operand values FuzzConvKernels draws from: signed
// zeros, ordinary magnitudes, extremes and non-finite values.
var fuzzValues = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 3.75, 1e-300,
	-1e300, 1e300, math.SmallestNonzeroFloat64, 0.1, math.NaN(), math.Inf(1), math.Inf(-1), -0.3,
}

// decodeConvCase builds a valid geometry and its operands from fuzz
// bytes: six geometry bytes, then one byte per operand value (each
// selecting from fuzzValues), cycling when the bytes run out.
func decodeConvCase(b []byte) convCase {
	at := func(i int) int {
		if len(b) == 0 {
			return 0
		}
		return int(b[i%len(b)])
	}
	kh, kw := 1+at(0)%5, 1+at(1)%5
	spec := ConvSpec{Stride: 1 + at(2)%3, Pad: at(3) % 3}
	c, n := 1+at(4)%3, 1+(at(4)/3)%3
	h := max(1, kh-2*spec.Pad) + at(5)%7
	w := max(1, kw-2*spec.Pad) + (at(5)/7)%7
	next := 6
	fill := func(dims ...int) *Tensor {
		t := New(dims...)
		for i := range t.data {
			t.data[i] = fuzzValues[at(next)%len(fuzzValues)]
			next++
		}
		return t
	}
	return convCase{
		x:     fill(c, h, w),
		w:     fill(n, c, kh, kw),
		delta: fill(n, spec.OutSize(h, kh), spec.OutSize(w, kw)),
		spec:  spec,
	}
}

// FuzzConvKernels differentially checks the three training convolutions
// against the references on fuzz-chosen geometries and values. Every
// decoded geometry is valid, so no input may panic.
func FuzzConvKernels(f *testing.F) {
	f.Add([]byte{2, 2, 0, 1, 4, 9, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 0, 1, 2, 7, 20, 12, 0, 13, 1, 0, 14})
	f.Add([]byte{4, 4, 2, 0, 8, 48, 2, 3, 0, 0, 0, 6, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkKernels(t, decodeConvCase(b), 1, 2)
	})
}

// The backward kernels index delta by the geometry, so a delta of the
// wrong shape must be rejected with a clear message, not read out of
// bounds or silently truncated.
func TestConvBackwardRejectsMismatchedDelta(t *testing.T) {
	x, w := New(2, 6, 6), New(3, 2, 3, 3)
	spec := ConvSpec{Stride: 1}
	mustPanicContaining(t, "does not match", func() { ConvBackwardInput(w, New(3, 4, 5), spec, 6, 6) })
	mustPanicContaining(t, "does not match", func() { ConvBackwardInput(w, New(2, 4, 4), spec, 6, 6) })
	mustPanicContaining(t, "does not match", func() { ConvBackwardWeights(x, New(3, 5, 4), spec, 3, 3) })
	mustPanicContaining(t, "larger than padded input", func() { ConvBackwardInput(New(3, 2, 7, 7), New(3, 1, 1), spec, 6, 6) })
	mustPanicContaining(t, "larger than padded input", func() { ConvBackwardWeights(x, New(3, 1, 1), spec, 7, 7) })
}
