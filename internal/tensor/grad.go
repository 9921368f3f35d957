package tensor

import (
	"fmt"
	"math"
)

// MatVec returns the matrix-vector product a [M,N] × x [N] -> [M].
func MatVec(a, x *Tensor) *Tensor {
	if a.Rank() != 2 || x.Rank() != 1 {
		panic(fmt.Sprintf("tensor: MatVec wants a rank 2 and x rank 1, got %v and %v", a.Dims(), x.Dims()))
	}
	m, n := a.Dim(0), a.Dim(1)
	if x.Dim(0) != n {
		panic(fmt.Sprintf("tensor: MatVec dims mismatch: a %v, x %v", a.Dims(), x.Dims()))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		sum := 0.0
		for j, v := range row {
			sum += v * x.data[j]
		}
		out.data[i] = sum
	}
	return out
}

// MatVecT returns aᵀ × x for a [M,N] and x [M] -> [N], i.e. the
// transposed-weight product used in FC backpropagation (paper Eq. 3).
func MatVecT(a, x *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	if x.Dim(0) != m {
		panic(fmt.Sprintf("tensor: MatVecT dims mismatch: a %v, x %v", a.Dims(), x.Dims()))
	}
	out := New(n)
	for i := 0; i < m; i++ {
		xi := x.data[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j] += xi * v
		}
	}
	return out
}

// Outer returns the outer product x [M] ⊗ y [N] -> [M,N], the FC weight
// gradient (δ ⊗ input).
func Outer(x, y *Tensor) *Tensor {
	m, n := x.Dim(0), y.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		xi := x.data[i]
		for j := 0; j < n; j++ {
			out.data[i*n+j] = xi * y.data[j]
		}
	}
	return out
}

// ConvBackwardInput computes dL/dx for a convolution y = w * x with the
// given spec, from the output gradient delta [N,OH,OW]. inH and inW give
// the input spatial size. This is paper Eq. 3, the full convolution of the
// dilated, padded delta with the transposed, 180°-rotated kernel, computed
// directly in scatter form: each delta element is held while its kernel
// taps add into the input positions its window covered. Visiting (in, oy,
// ox) in ascending order adds each input position's terms in exactly the
// full convolution's (in, ky descending, kx descending) order, without its
// structural zeros (dilation gaps and border padding). Input rows or
// columns no window covered keep gradient zero.
//
// While w is all-finite, zero deltas are skipped too: a zero delta times a
// finite weight is ±0, and adding ±0 to an accumulator that starts at +0
// (and so can never become −0) changes nothing. With a NaN or Inf weight
// every delta counts, zeros included, but the structural zeros of the
// rotated-kernel formulation still do not: there 0×Inf would be NaN.
func ConvBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	spec.validate()
	if w.Rank() != 4 || delta.Rank() != 3 {
		panic(fmt.Sprintf("tensor: ConvBackwardInput wants w rank 4 and delta rank 3, got %v and %v", w.Dims(), delta.Dims()))
	}
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := convGeom{c: c, h: inH, w: inW, n: n, kh: kh, kw: kw,
		oh: delta.Dim(1), ow: delta.Dim(2), stride: spec.Stride, pad: spec.Pad}
	spec.checkKernel("ConvBackwardInput", inH, inW, kh, kw)
	g.checkDelta("ConvBackwardInput", delta)
	dx := New(c, inH, inW)
	skipZeros := allFinite(w.data)
	// Each input channel owns its own dx plane.
	parallelFor(c, 2*int64(n)*int64(g.oh)*int64(g.ow)*int64(kh)*int64(kw), func(lo, hi int) {
		convBackwardInputChannels(g, w.data, delta.data, dx.data, skipZeros, lo, hi)
	})
	return dx
}

func convBackwardInputChannels(g convGeom, wd, dd, dxd []float64, skipZeros bool, lo, hi int) {
	s, p := g.stride, g.pad
	ksize := g.kh * g.kw
	for ic := lo; ic < hi; ic++ {
		plane := dxd[ic*g.h*g.w : (ic+1)*g.h*g.w]
		for in := 0; in < g.n; in++ {
			wk := wd[(in*g.c+ic)*ksize : (in*g.c+ic+1)*ksize]
			drows := dd[in*g.oh*g.ow : (in+1)*g.oh*g.ow]
			for oy := 0; oy < g.oh; oy++ {
				iy0 := oy*s - p
				kyLo, kyHi := taps(iy0, g.kh, g.h)
				for ox, dv := range drows[oy*g.ow : (oy+1)*g.ow] {
					if dv == 0 && skipZeros {
						continue
					}
					ix0 := ox*s - p
					kxLo, kxHi := taps(ix0, g.kw, g.w)
					if kxLo == kxHi {
						continue // the window lies wholly in padding
					}
					for ky := kyLo; ky < kyHi; ky++ {
						xo := (iy0+ky)*g.w + ix0
						dr := plane[xo+kxLo : xo+kxHi]
						for k, wv := range wk[ky*g.kw+kxLo : ky*g.kw+kxHi] {
							dr[k] += dv * wv
						}
					}
				}
			}
		}
	}
}

// ConvBackwardWeights computes dL/dw for y = w * x: each weight gradient is
// the convolution of the layer input with the (dilated) output gradient
// (paper Eq. 4, "errors are convolved with inputs of the layer").
// x is [C,H,W], delta is [N,OH,OW]; the result matches w's shape
// [N,C,KH,KW].
//
// Each delta element is held while it feeds every tap of every input
// channel, so all C×KH×KW gradients of one kernel accumulate side by side.
// Each gradient still sums its (oy, ox) terms in ascending order, padding
// positions (x = +0) included, as the direct loop does. While x is
// all-finite, zero deltas are skipped: their terms are ±0 and the
// accumulator, starting at +0, can never become −0.
func ConvBackwardWeights(x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	return ConvBackwardWeightsInto(nil, x, delta, spec, kh, kw)
}

// ConvBackwardWeightsInto computes ConvBackwardWeights into dw when dw
// already has the result's shape, and into a new tensor otherwise, and
// returns the result.
func ConvBackwardWeightsInto(dw, x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	spec.validate()
	if x.Rank() != 3 || delta.Rank() != 3 {
		panic(fmt.Sprintf("tensor: ConvBackwardWeights wants x and delta rank 3, got %v and %v", x.Dims(), delta.Dims()))
	}
	g := convGeom{c: x.Dim(0), h: x.Dim(1), w: x.Dim(2), n: delta.Dim(0), kh: kh, kw: kw,
		oh: delta.Dim(1), ow: delta.Dim(2), stride: spec.Stride, pad: spec.Pad}
	spec.checkKernel("ConvBackwardWeights", g.h, g.w, kh, kw)
	g.checkDelta("ConvBackwardWeights", delta)
	xp := x
	if g.pad > 0 {
		xp = Pad(x, g.pad, g.pad)
		g.h, g.w, g.pad = xp.Dim(1), xp.Dim(2), 0
	}
	dw = reuse(dw, g.n, g.c, kh, kw)
	skipZeros := allFinite(x.data)
	// Each output-gradient channel owns a disjoint [c, kh, kw] slab of dw.
	parallelFor(g.n, 2*int64(g.c)*int64(kh)*int64(kw)*int64(g.oh)*int64(g.ow), func(lo, hi int) {
		convBackwardWeightsChannels(g, xp.data, delta.data, dw.data, skipZeros, lo, hi)
	})
	return dw
}

func convBackwardWeightsChannels(g convGeom, xd, dd, dwd []float64, skipZeros bool, lo, hi int) {
	s := g.stride
	slabLen := g.c * g.kh * g.kw
	for in := lo; in < hi; in++ {
		slab := dwd[in*slabLen : (in+1)*slabLen]
		drows := dd[in*g.oh*g.ow : (in+1)*g.oh*g.ow]
		for oy := 0; oy < g.oh; oy++ {
			for ox, dv := range drows[oy*g.ow : (oy+1)*g.ow] {
				if dv == 0 && skipZeros {
					continue
				}
				for ic := 0; ic < g.c; ic++ {
					for ky := 0; ky < g.kh; ky++ {
						xo := (ic*g.h+oy*s+ky)*g.w + ox*s
						xr := xd[xo : xo+g.kw]
						ar := slab[(ic*g.kh+ky)*g.kw : (ic*g.kh+ky+1)*g.kw]
						for kx, xv := range xr {
							ar[kx] += xv * dv
						}
					}
				}
			}
		}
	}
}

// checkDelta panics unless delta is [n, oh, ow] with oh×ow the output size
// of g's kernels over its input.
func (g convGeom) checkDelta(op string, delta *Tensor) {
	spec := ConvSpec{Stride: g.stride, Pad: g.pad}
	if delta.Dim(0) != g.n || g.oh != spec.OutSize(g.h, g.kh) || g.ow != spec.OutSize(g.w, g.kw) {
		panic(fmt.Sprintf("tensor: %s delta %v does not match %d kernels %dx%d over input %dx%d (stride %d, pad %d)",
			op, delta.Dims(), g.n, g.kh, g.kw, g.h, g.w, g.stride, g.pad))
	}
}

// allFinite reports whether every value is neither NaN nor ±Inf.
func allFinite(v []float64) bool {
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// DepthwiseBackwardInput computes dL/dx for a depthwise convolution.
// w is [C,KH,KW], delta is [C,OH,OW].
func DepthwiseBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2)
	dx := New(c, inH, inW)
	oh, ow := delta.Dim(1), delta.Dim(2)
	// Depthwise gradients scatter within a single channel's dx plane only.
	parallelFor(c, 2*int64(oh)*int64(ow)*int64(kh)*int64(kw), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := delta.data[(ic*oh+oy)*ow+ox]
					if g == 0 {
						continue
					}
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
							dx.data[(ic*inH+iy)*inW+ix] += g * w.data[(ic*kh+ky)*kw+kx]
						}
					}
				}
			}
		}
	})
	return dx
}

// DepthwiseBackwardWeights computes dL/dw for a depthwise convolution.
func DepthwiseBackwardWeights(x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := delta.Dim(1), delta.Dim(2)
	dw := New(c, kh, kw)
	parallelFor(c, 2*int64(kh)*int64(kw)*int64(oh)*int64(ow), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					sum := 0.0
					for oy := 0; oy < oh; oy++ {
						iy := oy*spec.Stride - spec.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*spec.Stride - spec.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							sum += x.data[(ic*h+iy)*w+ix] * delta.data[(ic*oh+oy)*ow+ox]
						}
					}
					dw.data[(ic*kh+ky)*kw+kx] = sum
				}
			}
		}
	})
	return dw
}
