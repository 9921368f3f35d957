// Package tensor provides the dense numerical substrate used by the INCA
// reproduction: rank-N float64 tensors in row-major layout plus the
// convolution, pooling, and matrix primitives that both the functional
// crossbar simulation and the software training engine are validated
// against.
//
// The package is deliberately dependency-free and deterministic: every
// randomized constructor takes an explicit *rand.Rand so experiments are
// reproducible bit-for-bit.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
)

// Tensor is a dense row-major tensor of float64 values.
//
// The zero value is an empty tensor. Use New or one of the typed
// constructors to build a usable tensor.
type Tensor struct {
	dims []int
	data []float64
}

// New returns a zero-filled tensor with the given dimensions.
// It panics if any dimension is negative.
func New(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d < 0 {
			// Formatting a copy keeps dims from escaping, so callers'
			// variadic dimension lists stay on the stack.
			panic(fmt.Sprintf("tensor: negative dimension %d in %v", d, slices.Clone(dims)))
		}
		n *= d
	}
	return &Tensor{dims: append([]int(nil), dims...), data: make([]float64, n)}
}

// shaped returns t when it already has exactly the given dimensions, and
// New(dims...) otherwise. A reused t keeps its stale contents, so shaped
// backs the Into forms of kernels that write every output element; the
// Into forms let a caller keep one scratch tensor per call site. The
// destination must not share storage with the kernel's inputs.
func shaped(t *Tensor, dims ...int) *Tensor {
	if t == nil || !slices.Equal(t.dims, dims) {
		return New(dims...)
	}
	return t
}

// reuse is shaped with the result zero-filled, for kernels that
// accumulate into their output.
func reuse(t *Tensor, dims ...int) *Tensor {
	if out := shaped(t, dims...); out != t {
		return out
	}
	clear(t.data)
	return t
}

// FromSlice builds a tensor with the given dimensions backed by a copy of
// data. It panics if len(data) does not match the dimension product.
func FromSlice(data []float64, dims ...int) *Tensor {
	t := New(dims...)
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: data length %d does not match dims %v (need %d)",
			len(data), dims, len(t.data)))
	}
	copy(t.data, data)
	return t
}

// Randn returns a tensor with entries drawn from N(0, stddev²) using rng.
func Randn(rng *rand.Rand, stddev float64, dims ...int) *Tensor {
	t := New(dims...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// Uniform returns a tensor with entries drawn uniformly from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64, dims ...int) *Tensor {
	t := New(dims...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// Dims returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Dims() []int { return t.dims }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.dims[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.dims) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// offset converts a multi-index into a flat offset.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.dims) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.dims)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.dims[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for dims %v", slices.Clone(idx), t.dims))
		}
		off = off*t.dims[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor { return t.ReshapeInto(nil, t.dims...) }

// Reshape returns a view-copy of t with new dimensions; the element count
// must match.
func (t *Tensor) Reshape(dims ...int) *Tensor { return t.ReshapeInto(nil, dims...) }

// ReshapeInto copies t's elements into dst shaped dims when dst already
// has those dimensions, and into a new tensor otherwise, and returns the
// result; the element count must match.
func (t *Tensor) ReshapeInto(dst *Tensor, dims ...int) *Tensor {
	dst = shaped(dst, dims...)
	if len(dst.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.dims, dst.dims))
	}
	copy(dst.data, t.data)
	return dst
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces every element x with f(x) in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, x := range t.data {
		t.data[i] = f(x)
	}
	return t
}

// AddInPlace adds o element-wise into t. Dimensions must match.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o)
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// SubInPlace subtracts o element-wise from t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o)
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
	return t
}

// Scale multiplies every element by s in place and returns t.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AXPYInPlace performs t += alpha*o.
func (t *Tensor) AXPYInPlace(alpha float64, o *Tensor) *Tensor {
	t.mustSameShape(o)
	for i := range t.data {
		t.data[i] += alpha * o.data[i]
	}
	return t
}

// Hadamard multiplies t element-wise by o in place.
func (t *Tensor) Hadamard(o *Tensor) *Tensor {
	t.mustSameShape(o)
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, x := range t.data {
		s += x
	}
	return s
}

// RMS returns the root-mean-square of the elements (0 for empty tensors),
// a robust scale estimate that outlier elements cannot dominate.
func (t *Tensor) RMS() float64 {
	if len(t.data) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range t.data {
		s += x * x
	}
	return math.Sqrt(s / float64(len(t.data)))
}

// MaxAbs returns the maximum absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, x := range t.data {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether t and o have identical shape and all elements are
// within tol of each other.
func (t *Tensor) Equal(o *Tensor, tol float64) bool {
	if len(t.dims) != len(o.dims) {
		return false
	}
	for i := range t.dims {
		if t.dims[i] != o.dims[i] {
			return false
		}
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description of the tensor (shape plus leading
// elements), not its full contents.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.dims)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > 8 {
		b.WriteString(", ...")
	}
	b.WriteString("]")
	return b.String()
}

func (t *Tensor) mustSameShape(o *Tensor) {
	if len(t.dims) != len(o.dims) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.dims, o.dims))
	}
	for i := range t.dims {
		if t.dims[i] != o.dims[i] {
			panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.dims, o.dims))
		}
	}
}
