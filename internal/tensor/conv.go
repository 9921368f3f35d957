package tensor

import "fmt"

// ConvSpec describes the geometry of a 2D convolution.
type ConvSpec struct {
	Stride int // stride in both spatial directions (>= 1)
	Pad    int // symmetric zero padding (>= 0)
}

// OutSize returns the output spatial size for an input of size in with
// kernel size k under this spec.
func (s ConvSpec) OutSize(in, k int) int {
	return (in+2*s.Pad-k)/s.Stride + 1
}

func (s ConvSpec) validate() {
	if s.Stride < 1 {
		panic(fmt.Sprintf("tensor: invalid stride %d", s.Stride))
	}
	if s.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid pad %d", s.Pad))
	}
}

// checkKernel panics with a clear geometry message when the kernel cannot
// produce a positive output size: a degenerate kernel, or one larger than
// the padded input. Without this check OutSize yields a zero or negative
// dimension and the caller fails later with a confusing index panic (or
// silently returns an empty tensor).
func (s ConvSpec) checkKernel(op string, h, w, kh, kw int) {
	if kh < 1 || kw < 1 {
		panic(fmt.Sprintf("tensor: %s kernel %dx%d must be at least 1x1", op, kh, kw))
	}
	if kh > h+2*s.Pad || kw > w+2*s.Pad {
		panic(fmt.Sprintf(
			"tensor: %s kernel %dx%d larger than padded input %dx%d (input %dx%d, pad %d)",
			op, kh, kw, h+2*s.Pad, w+2*s.Pad, h, w, s.Pad))
	}
}

// Conv2D computes a direct 2D convolution (really cross-correlation, as in
// deep learning frameworks) of a single image.
//
//	x: [C, H, W]      input feature maps
//	w: [N, C, KH, KW] kernels
//
// The result has shape [N, OH, OW]. This is the mathematical "direct
// convolution" the INCA 2T1R array implements (paper Eq. 1).
func Conv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	return Conv2DInto(nil, x, w, spec)
}

// Conv2DInto computes Conv2D(x, w, spec) into out when out already has the
// result's shape, and into a new tensor otherwise, and returns the result.
func Conv2DInto(out, x, w *Tensor, spec ConvSpec) *Tensor {
	spec.validate()
	if x.Rank() != 3 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D wants x rank 3 and w rank 4, got %v and %v", x.Dims(), w.Dims()))
	}
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	n, wc, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: x has %d, w has %d", c, wc))
	}
	spec.checkKernel("Conv2D", h, wd, kh, kw)
	g := convGeom{c: c, h: h, w: wd, n: n, kh: kh, kw: kw,
		oh: spec.OutSize(h, kh), ow: spec.OutSize(wd, kw), stride: spec.Stride, pad: spec.Pad}
	// conv2DChannels writes every output element.
	dst := shaped(out, n, g.oh, g.ow)
	// Output channels are independent, so they parallelize without
	// changing any per-element reduction order.
	if flops := 2 * int64(g.oh) * int64(g.ow) * int64(c) * int64(kh) * int64(kw); serialFor(n, flops) {
		conv2DChannels(g, x.data, w.data, dst.data, 0, n)
	} else {
		parallelFor(n, flops, func(lo, hi int) { conv2DChannels(g, x.data, w.data, dst.data, lo, hi) })
	}
	return dst
}

// convGeom is the geometry of one convolution: c input channels of h×w,
// n kernels of kh×kw, oh×ow outputs, and the spec's stride and padding.
type convGeom struct {
	c, h, w     int
	n, kh, kw   int
	oh, ow      int
	stride, pad int
}

// taps returns the kernel taps [lo, hi) that land inside an input axis of
// size size for a window starting at coordinate i0 (negative in padding).
// The range is empty (lo == hi) when the window lies wholly in padding.
func taps(i0, k, size int) (lo, hi int) {
	lo = max(0, -i0)
	return lo, max(lo, min(k, size-i0))
}

// interior returns the output indices [lo, hi) along one axis of out
// outputs at stride s whose window of k taps lies wholly inside an input
// axis of size size padded by p.
func interior(size, k, out, s, p int) (lo, hi int) {
	lo = min(out, (p+s-1)/s)
	if size-k+p < 0 {
		return lo, lo
	}
	return lo, max(lo, min(out, (size-k+p)/s+1))
}

// conv2DChannels computes output channels [lo, hi) of Conv2D, two at a
// time. Outputs whose window lies wholly inside the input go in blocks of
// four, in row-major order: a block holds its four input row segments
// while the two kernels' rows stream past, so each input load feeds two
// sums, each weight load feeds four, and no tap needs a bounds test. The
// remaining outputs (windows reaching into padding, and the last partial
// block) go one at a time over their in-bounds taps. Either way every
// output sums its terms in (ic, ky, kx) order over exactly the in-bounds
// taps, as the direct loop does, so results are bit-identical to it for
// any values, NaN and Inf included.
func conv2DChannels(g convGeom, xd, wd, od []float64, lo, hi int) {
	oyLo, oyHi := interior(g.h, g.kh, g.oh, g.stride, g.pad)
	oxLo, oxHi := interior(g.w, g.kw, g.ow, g.stride, g.pad)
	inner := (oyHi - oyLo) * (oxHi - oxLo)
	c, h, w, kh, kw := g.c, g.h, g.w, g.kh, g.kw
	wlen, plen := c*kh*kw, g.oh*g.ow
	for on := lo; on < hi; on += 2 {
		// An odd last channel pairs with itself and is computed twice.
		on1 := min(on+1, hi-1)
		wn0, wn1 := wd[on*wlen:(on+1)*wlen], wd[on1*wlen:(on1+1)*wlen]
		p0, p1 := od[on*plen:(on+1)*plen], od[on1*plen:(on1+1)*plen]
		// (oy, ox) walks the interior in row-major order.
		oy, ox := oyLo, oxLo
		var outs, bases [4]int
		for t := 0; t+4 <= inner; t += 4 {
			for j := range outs {
				outs[j] = oy*g.ow + ox
				bases[j] = (oy*g.stride-g.pad)*w + ox*g.stride - g.pad
				if ox++; ox == oxHi {
					oy, ox = oy+1, oxLo
				}
			}
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			// r steps through the input rows under each kernel row k.
			for ic, k := 0, 0; ic < c; ic++ {
				for r := ic * h * w; r < (ic*h+kh)*w; r, k = r+w, k+kw {
					wr := wn0[k : k+kw]
					vr := wn1[k : k+kw][:len(wr)]
					x0 := xd[bases[0]+r:][:len(wr)]
					x1 := xd[bases[1]+r:][:len(wr)]
					x2 := xd[bases[2]+r:][:len(wr)]
					x3 := xd[bases[3]+r:][:len(wr)]
					for kx, wv := range wr {
						vv := vr[kx]
						e0, e1, e2, e3 := x0[kx], x1[kx], x2[kx], x3[kx]
						a0 += e0 * wv
						a1 += e1 * wv
						a2 += e2 * wv
						a3 += e3 * wv
						b0 += e0 * vv
						b1 += e1 * vv
						b2 += e2 * vv
						b3 += e3 * vv
					}
				}
			}
			p0[outs[0]], p0[outs[1]], p0[outs[2]], p0[outs[3]] = a0, a1, a2, a3
			p1[outs[0]], p1[outs[1]], p1[outs[2]], p1[outs[3]] = b0, b1, b2, b3
		}
		// The last partial block of the interior, then the border.
		for t := inner - inner%4; t < inner; t++ {
			p0[oy*g.ow+ox] = convPoint(g, xd, wn0, oy, ox)
			p1[oy*g.ow+ox] = convPoint(g, xd, wn1, oy, ox)
			if ox++; ox == oxHi {
				oy, ox = oy+1, oxLo
			}
		}
		for oy := 0; oy < g.oh; oy++ {
			for ox := 0; ox < g.ow; ox++ {
				if ox == oxLo && oy >= oyLo && oy < oyHi {
					if ox = oxHi; ox == g.ow {
						break
					}
				}
				p0[oy*g.ow+ox] = convPoint(g, xd, wn0, oy, ox)
				p1[oy*g.ow+ox] = convPoint(g, xd, wn1, oy, ox)
			}
		}
	}
}

// convPoint computes one Conv2D output of the kernel wn over its
// in-bounds taps in (ic, ky, kx) order.
func convPoint(g convGeom, xd, wn []float64, oy, ox int) float64 {
	iy0, ix0 := oy*g.stride-g.pad, ox*g.stride-g.pad
	kyLo, kyHi := taps(iy0, g.kh, g.h)
	kxLo, kxHi := taps(ix0, g.kw, g.w)
	sum := 0.0
	if kxLo == kxHi {
		return sum // the window lies wholly in padding
	}
	for ic := 0; ic < g.c; ic++ {
		for ky := kyLo; ky < kyHi; ky++ {
			xo := (ic*g.h+iy0+ky)*g.w + ix0
			xr := xd[xo+kxLo : xo+kxHi]
			for k, wv := range wn[(ic*g.kh+ky)*g.kw+kxLo : (ic*g.kh+ky)*g.kw+kxHi] {
				sum += xr[k] * wv
			}
		}
	}
	return sum
}

// Im2Col unrolls the sliding windows of x into a matrix of shape
// [C*KH*KW, OH*OW]. Column j holds the window that produces output position
// j; this is the "GEMM-based convolution" unrolling used by WS accelerators
// (paper §III.B, "Challenges"). The repetition of input elements across
// columns is exactly the RRAM blow-up quantified in Fig. 7b.
func Im2Col(x *Tensor, kh, kw int, spec ConvSpec) *Tensor {
	spec.validate()
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col wants rank-3 x, got %v", x.Dims()))
	}
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	spec.checkKernel("Im2Col", h, wd, kh, kw)
	out := New(c*kh*kw, spec.OutSize(h, kh)*spec.OutSize(wd, kw))
	// Each input channel fills its own kh*kw output rows: pure disjoint
	// copies, parallel over channels.
	if flops := int64(kh) * int64(kw) * int64(out.dims[1]); serialFor(c, flops) {
		im2colChannels(x, out, kh, kw, spec, 0, c)
	} else {
		parallelFor(c, flops, func(lo, hi int) { im2colChannels(x, out, kh, kw, spec, lo, hi) })
	}
	return out
}

// im2colChannels fills the Im2Col rows of input channels [lo, hi).
func im2colChannels(x, out *Tensor, kh, kw int, spec ConvSpec, lo, hi int) {
	h, wd := x.Dim(1), x.Dim(2)
	oh, ow := spec.OutSize(h, kh), spec.OutSize(wd, kw)
	for ic := lo; ic < hi; ic++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ic*kh+ky)*kw + kx
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.Stride - spec.Pad + ky
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.Stride - spec.Pad + kx
						v := 0.0
						if iy >= 0 && iy < h && ix >= 0 && ix < wd {
							v = x.data[(ic*h+iy)*wd+ix]
						}
						out.data[row*(oh*ow)+oy*ow+ox] = v
					}
				}
			}
		}
	}
}

// matMulBlock is the column-tile width of the blocked MatMul: 512 float64
// values keep one b-stripe (and the matching output stripe) resident in
// L1 while the k loop streams over it.
const matMulBlock = 512

// MatMul returns a×b for 2-D tensors a [M,K] and b [K,N].
//
// The kernel is cache-blocked over columns of b and parallel over rows of
// a. Each output element still accumulates its k products in ascending
// order on a single goroutine, so the result is byte-identical to the
// naive triple loop at any parallelism budget.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 tensors, got %v and %v", a.Dims(), b.Dims()))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims mismatch: %d vs %d", k, k2))
	}
	out := New(m, n)
	if flops := 2 * int64(k) * int64(n); serialFor(m, flops) {
		matMulRows(a, b, out, 0, m)
	} else {
		parallelFor(m, flops, func(lo, hi int) { matMulRows(a, b, out, lo, hi) })
	}
	return out
}

// matMulRows computes rows [lo, hi) of out = a×b.
func matMulRows(a, b, out *Tensor, lo, hi int) {
	k, n := a.Dim(1), b.Dim(1)
	for jb := 0; jb < n; jb += matMulBlock {
		je := min(jb+matMulBlock, n)
		for i := lo; i < hi; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := out.data[i*n+jb : i*n+je]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.data[p*n+jb : p*n+je]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// Conv2DIm2Col computes the same result as Conv2D via the unrolled
// GEMM formulation: reshape w to [N, C*KH*KW] and multiply by the im2col
// matrix. Used to cross-check the direct path and to model WS execution.
func Conv2DIm2Col(x, w *Tensor, spec ConvSpec) *Tensor {
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	cols := Im2Col(x, kh, kw, spec)
	wm := w.Reshape(n, c*kh*kw)
	prod := MatMul(wm, cols)
	oh := spec.OutSize(x.Dim(1), kh)
	ow := spec.OutSize(x.Dim(2), kw)
	return prod.Reshape(n, oh, ow)
}

// Rot180 rotates each KH×KW kernel plane of w [N, C, KH, KW] by 180° and
// swaps the N and C axes, producing the transposed kernel W^T used in
// backpropagation (paper Eq. 3): result is [C, N, KH, KW].
func Rot180(w *Tensor) *Tensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Rot180 wants rank-4 w, got %v", w.Dims()))
	}
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	out := New(c, n, kh, kw)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					v := w.data[((in*c+ic)*kh+ky)*kw+kx]
					out.data[((ic*n+in)*kh+(kh-1-ky))*kw+(kw-1-kx)] = v
				}
			}
		}
	}
	return out
}

// Pad returns x [C,H,W] zero-padded by py rows above and below and px
// columns left and right.
func Pad(x *Tensor, py, px int) *Tensor {
	if py == 0 && px == 0 {
		return x.Clone()
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h+2*py, w+2*px
	out := New(c, oh, ow)
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			src := x.data[(ic*h+iy)*w : (ic*h+iy)*w+w]
			dstRow := (ic*oh+iy+py)*ow + px
			copy(out.data[dstRow:dstRow+w], src)
		}
	}
	return out
}

// Dilate inserts (stride-1) zeros between the elements of each spatial map
// of x [C,H,W]. It converts a strided convolution's output gradient into
// the dense form needed by the full-convolution backward pass.
func Dilate(x *Tensor, stride int) *Tensor {
	if stride <= 1 {
		return x.Clone()
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := (h-1)*stride + 1
	ow := (w-1)*stride + 1
	out := New(c, oh, ow)
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				out.data[(ic*oh+iy*stride)*ow+ix*stride] = x.data[(ic*h+iy)*w+ix]
			}
		}
	}
	return out
}
