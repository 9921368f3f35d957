// Package bin holds the strict primitives of the repository's exact
// binary encodings: the arch.Config wire and the result store's v2
// record, whose report body is sim's. Writers append strings and floats
// here and varints through encoding/binary; a Reader parses them back
// and accepts exactly the bytes those appends produce, so every value
// it accepts re-encodes to its own bytes:
//
//   - a string is a uvarint length and its raw bytes, kept verbatim
//     even when they are not valid UTF-8;
//   - a float is its IEEE-754 bits, little-endian, so NaN payloads, -0
//     and subnormals survive;
//   - a varint is minimal: a redundant continuation byte, a value that
//     overflows 64 bits and a truncated varint are errors;
//   - a bool is one byte, 0 or 1.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendString appends s as a uvarint length and its raw bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat appends the IEEE-754 bits of v, little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

var errTruncated = errors.New("truncated")

// Reader consumes an encoding front to back. The first error sticks:
// every later read returns a zero value and consumes nothing, so a
// decoder reads all its fields and checks the error once, with Done.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail records err as the reader's error unless one is already set. A
// nil err changes nothing.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first error, without the trailing-byte check of Done.
func (r *Reader) Err() error { return r.err }

// Done ends the read: bytes left over are an error. It returns the
// first error.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// take consumes the next n bytes, failing on fewer.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errTruncated
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

// Bool reads a bool byte, which must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail(fmt.Errorf("bool byte %d", v))
	}
	return v == 1
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errTruncated
	case n < 0:
		r.err = errors.New("varint overflows 64 bits")
	case n > 1 && r.b[n-1] == 0:
		r.err = errors.New("non-minimal varint")
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// Varint reads a minimal zigzag-encoded signed varint, as
// binary.AppendVarint writes it.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a Varint that must fit in an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("int %d overflows int", v))
		return 0
	}
	return int(v)
}

// Float reads a float's eight little-endian bytes.
func (r *Reader) Float() float64 {
	if v := r.take(8); v != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(v))
	}
	return 0
}

// Str reads a length-prefixed string. It is not named String so that a
// Reader is no fmt.Stringer: formatting one must not consume its input.
func (r *Reader) Str() string { return string(r.take(r.Uvarint())) }

// Count reads the uvarint count of a sequence whose elements take at
// least minElemSize (≥ 1) bytes each, and fails when the bytes left
// cannot hold that many, so a caller can allocate for the count before
// reading a single element.
func (r *Reader) Count(minElemSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minElemSize) {
		r.Fail(fmt.Errorf("count %d does not fit in the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}
