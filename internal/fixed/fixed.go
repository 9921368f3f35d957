// Package fixed implements the fixed-point arithmetic used throughout the
// INCA reproduction: symmetric linear quantization to arbitrary bit depths
// and the bit-serial decomposition (bit planes + shift-accumulate) that the
// INCA macro executes (paper §IV.C: "Each RRAM stores one bit of input
// values ... the weight is fed into each array bit-by-bit, while the output
// is accumulated through a shift-accumulator").
package fixed

import (
	"fmt"
	"math"

	"github.com/inca-arch/inca/internal/tensor"
)

// Quantizer performs symmetric signed linear quantization with a fixed
// number of bits. Codes live in [-(2^(bits-1)-1), 2^(bits-1)-1]; the scale
// maps code 2^(bits-1)-1 to the calibration maximum.
type Quantizer struct {
	Bits  int
	Scale float64 // real value represented by one code step
}

// NewQuantizer builds a quantizer for the given bit depth calibrated so
// that maxAbs maps to the largest positive code. A zero maxAbs yields a
// unit-scale quantizer. A non-finite or negative maxAbs is rejected: it
// means the calibration tensor was poisoned (NaN/Inf activations), and
// silently treating it as unit scale would corrupt every quantized value
// downstream (the Table I protocol quantizes to the tensor's own max-abs).
func NewQuantizer(bits int, maxAbs float64) Quantizer {
	if bits < 2 || bits > 31 {
		panic(fmt.Sprintf("fixed: unsupported bit depth %d", bits))
	}
	if math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) || maxAbs < 0 {
		panic(fmt.Sprintf("fixed: invalid calibration maxAbs %v (poisoned calibration tensor?)", maxAbs))
	}
	qmax := float64(int64(1)<<(bits-1) - 1)
	scale := 1.0
	if maxAbs > 0 {
		scale = maxAbs / qmax
	}
	return Quantizer{Bits: bits, Scale: scale}
}

// MaxCode returns the largest positive code value.
func (q Quantizer) MaxCode() int64 { return int64(1)<<(q.Bits-1) - 1 }

// Quantize converts a real value to its integer code, clamping to range.
func (q Quantizer) Quantize(x float64) int64 {
	c := int64(math.Round(x / q.Scale))
	if max := q.MaxCode(); c > max {
		c = max
	} else if c < -max {
		c = -max
	}
	return c
}

// Dequantize converts a code back to a real value.
func (q Quantizer) Dequantize(c int64) float64 { return float64(c) * q.Scale }

// RoundTrip quantizes and dequantizes, returning the representable value
// nearest to x.
func (q Quantizer) RoundTrip(x float64) float64 { return q.Dequantize(q.Quantize(x)) }

// QuantizeTensor returns a copy of t with every element rounded to the
// nearest representable value of a bits-deep quantizer calibrated to t's
// own max-abs. This is the post-training quantization protocol of Table I.
func QuantizeTensor(t *tensor.Tensor, bits int) *tensor.Tensor {
	q := NewQuantizer(bits, t.MaxAbs())
	return t.Clone().Apply(q.RoundTrip)
}

// BitPlanes decomposes a non-negative code into its binary planes,
// least-significant first. plane[b] is 0 or 1. Negative codes must be
// handled by the caller (INCA uses sign-magnitude: a sign flag plus
// magnitude planes).
func BitPlanes(code int64, bits int) []uint8 {
	if code < 0 {
		panic(fmt.Sprintf("fixed: BitPlanes needs a non-negative code, got %d", code))
	}
	planes := make([]uint8, bits)
	for b := 0; b < bits; b++ {
		planes[b] = uint8((code >> b) & 1)
	}
	return planes
}

// FromBitPlanes reassembles a code from planes produced by BitPlanes.
func FromBitPlanes(planes []uint8) int64 {
	var c int64
	for b, p := range planes {
		if p > 1 {
			panic(fmt.Sprintf("fixed: plane %d holds %d, want 0 or 1", b, p))
		}
		c |= int64(p) << b
	}
	return c
}

// SignMagnitude splits a signed code into (sign, magnitude) where sign is
// ±1 (zero maps to +1).
func SignMagnitude(code int64) (sign int64, mag int64) {
	if code < 0 {
		return -1, -code
	}
	return 1, code
}

// ShiftAccumulator models the digital shift-accumulate register that
// combines per-bit-plane partial sums into a full-precision result
// (paper §IV.C). Partial sums are pushed most-significant-plane last.
type ShiftAccumulator struct {
	acc    int64
	pushes int
}

// Push adds a partial sum for the next more-significant bit plane.
// The b-th push (0-based) is weighted by 2^b.
func (s *ShiftAccumulator) Push(partial int64) {
	s.acc += partial << s.pushes
	s.pushes++
}

// Value returns the accumulated result.
func (s *ShiftAccumulator) Value() int64 { return s.acc }

// Pushes returns how many planes have been combined.
func (s *ShiftAccumulator) Pushes() int { return s.pushes }

// Reset clears the accumulator for reuse.
func (s *ShiftAccumulator) Reset() { s.acc, s.pushes = 0, 0 }

// BitSerialDot computes the dot product of two signed-code vectors using
// the bit-serial scheme the INCA macro uses: activations are stored as bit
// planes (one RRAM per bit), each weight bit plane is applied in turn, and
// per-plane binary dot products are combined with two nested shift
// accumulations. The result must equal the plain integer dot product — the
// correspondence is covered by tests.
func BitSerialDot(a, w []int64, bits int) int64 {
	if len(a) != len(w) {
		panic(fmt.Sprintf("fixed: BitSerialDot length mismatch %d vs %d", len(a), len(w)))
	}
	// Decompose into sign-magnitude bit planes.
	type planes struct {
		sign int64
		bits []uint8
	}
	ap := make([]planes, len(a))
	wp := make([]planes, len(w))
	for i := range a {
		s, m := SignMagnitude(a[i])
		ap[i] = planes{s, BitPlanes(m, bits)}
		s, m = SignMagnitude(w[i])
		wp[i] = planes{s, BitPlanes(m, bits)}
	}
	var outer ShiftAccumulator
	for wb := 0; wb < bits; wb++ { // weight plane streamed into the array
		var inner ShiftAccumulator
		for ab := 0; ab < bits; ab++ { // activation plane resident in RRAM
			var partial int64
			for i := range a {
				if ap[i].bits[ab] == 1 && wp[i].bits[wb] == 1 {
					partial += ap[i].sign * wp[i].sign
				}
			}
			inner.Push(partial)
		}
		outer.Push(inner.Value())
	}
	return outer.Value()
}

// Dot is the plain integer dot product reference for BitSerialDot.
func Dot(a, w []int64) int64 {
	var s int64
	for i := range a {
		s += a[i] * w[i]
	}
	return s
}
