package tensor

import (
	"fmt"
	"math"
)

// MaxPoolResult carries a max-pooling output along with the flat input
// index of each selected maximum, which the backward pass uses to route
// gradients (the paper's LUT that "finds the original position of the
// maximum value" — §IV.C Backward).
type MaxPoolResult struct {
	Out    *Tensor // [C, OH, OW]
	ArgMax []int   // flat index into the input for each output element
}

// MaxPool2D applies k×k max pooling with the given stride to x [C,H,W].
func MaxPool2D(x *Tensor, k, stride int) MaxPoolResult {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: MaxPool2D wants rank-3 x, got %v", x.Dims()))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := New(c, oh, ow)
	arg := make([]int, c*oh*ow)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Initialize from the first cell so a window of equal (or
				// NaN) values still has a defined argmax.
				bestIdx := (ic*h+oy*stride)*w + ox*stride
				best := x.data[bestIdx]
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx
						idx := (ic*h+iy)*w + ix
						if v := x.data[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				o := (ic*oh+oy)*ow + ox
				out.data[o] = best
				arg[o] = bestIdx
			}
		}
	}
	return MaxPoolResult{Out: out, ArgMax: arg}
}

// MaxPoolBackward scatters the output gradient delta [C,OH,OW] back to
// input positions recorded in res.ArgMax; all other elements are "dead as
// 0" (paper §II.B.2). inputDims gives the original input shape [C,H,W].
func MaxPoolBackward(res MaxPoolResult, delta *Tensor, inputDims []int) *Tensor {
	return MaxPoolBackwardInto(nil, res, delta, inputDims)
}

// MaxPoolBackwardInto computes MaxPoolBackward into dx when dx already has
// shape inputDims, and into a new tensor otherwise, and returns the result.
func MaxPoolBackwardInto(dx *Tensor, res MaxPoolResult, delta *Tensor, inputDims []int) *Tensor {
	dx = reuse(dx, inputDims...)
	for i, src := range res.ArgMax {
		dx.data[src] += delta.data[i]
	}
	return dx
}

// AvgPool2D applies k×k average pooling with the given stride to x [C,H,W].
func AvgPool2D(x *Tensor, k, stride int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := New(c, oh, ow)
	inv := 1.0 / float64(k*k)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := 0.0
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						sum += x.data[(ic*h+oy*stride+ky)*w+ox*stride+kx]
					}
				}
				out.data[(ic*oh+oy)*ow+ox] = sum * inv
			}
		}
	}
	return out
}

// GlobalAvgPool2D reduces x [C,H,W] to a [C] vector of spatial means.
func GlobalAvgPool2D(x *Tensor) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := New(c)
	inv := 1.0 / float64(h*w)
	for ic := 0; ic < c; ic++ {
		sum := 0.0
		for i := ic * h * w; i < (ic+1)*h*w; i++ {
			sum += x.data[i]
		}
		out.data[ic] = sum * inv
	}
	return out
}

// ReLU returns max(x, 0) element-wise as a new tensor.
func ReLU(x *Tensor) *Tensor {
	return ReLUInto(nil, x)
}

// ReLUInto computes ReLU(x) into out when out already has x's shape, and
// into a new tensor otherwise, and returns the result.
func ReLUInto(out, x *Tensor) *Tensor {
	out = reuse(out, x.dims...)
	for i, v := range x.data {
		if v < 0 {
			v = 0
		}
		out.data[i] = v
	}
	return out
}

// ReLUBackward masks delta by the ReLU derivative evaluated at pre-
// activation input x: delta where x > 0, else 0. This is the AND-gate
// formulation INCA uses in hardware (paper §IV.C).
func ReLUBackward(x, delta *Tensor) *Tensor {
	return ReLUBackwardInto(nil, x, delta)
}

// ReLUBackwardInto computes ReLUBackward(x, delta) into out when out
// already has x's shape, and into a new tensor otherwise, and returns the
// result.
func ReLUBackwardInto(out, x, delta *Tensor) *Tensor {
	x.mustSameShape(delta)
	out = reuse(out, x.dims...)
	for i := range x.data {
		if x.data[i] > 0 {
			out.data[i] = delta.data[i]
		}
	}
	return out
}

// Softmax returns the softmax of a rank-1 tensor, computed stably.
func Softmax(x *Tensor) *Tensor {
	if x.Rank() != 1 {
		panic(fmt.Sprintf("tensor: Softmax wants rank-1 x, got %v", x.Dims()))
	}
	out := New(x.Dim(0))
	max := math.Inf(-1)
	for _, v := range x.data {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range x.data {
		e := math.Exp(v - max)
		out.data[i] = e
		sum += e
	}
	for i := range out.data {
		out.data[i] /= sum
	}
	return out
}
