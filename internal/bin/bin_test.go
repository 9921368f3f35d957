package bin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"testing"
)

// TestReaderRoundTrip reads back every primitive at its edges, written
// the way the encoders write them, and requires Done to find nothing
// left over.
func TestReaderRoundTrip(t *testing.T) {
	strs := []string{"", "INCA", "INCA-\xff", string(make([]byte, 300))}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.SmallestNonzeroFloat64, math.Float64frombits(0x7ff8000000000001)}
	ints := []int64{0, -1, 1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	var b []byte
	b = append(b, 0xfe, 0, 1)
	for _, s := range strs {
		b = AppendString(b, s)
	}
	for _, v := range floats {
		b = AppendFloat(b, v)
	}
	for _, v := range ints {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendUvarint(b, 2)
	b = append(b, 7, 8)

	r := NewReader(b)
	if got := r.Byte(); got != 0xfe {
		t.Fatalf("Byte = %#x", got)
	}
	if f, tr := r.Bool(), r.Bool(); f || !tr {
		t.Fatalf("Bool = %v, %v; want false, true", f, tr)
	}
	for _, want := range strs {
		if got := r.Str(); got != want {
			t.Fatalf("Str = %q, want %q", got, want)
		}
	}
	for _, want := range floats {
		if got := r.Float(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float = %v (%#x), want %v", got, math.Float64bits(got), want)
		}
	}
	for i, want := range ints {
		var got int64
		if i%2 == 0 {
			got = r.Varint()
		} else {
			got = int64(r.Int())
		}
		if got != want {
			t.Fatalf("read %d, want %d", got, want)
		}
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Count(1); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	r.Byte()
	r.Byte()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejectsMalformed feeds each primitive the inputs no
// encoder writes: every one must fail, on the read or at Done.
func TestReaderRejectsMalformed(t *testing.T) {
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	nonMinimal := []byte{0x81, 0x00}
	type read func(*Reader)
	var (
		byt     read = func(r *Reader) { r.Byte() }
		boolean read = func(r *Reader) { r.Bool() }
		uvarint read = func(r *Reader) { r.Uvarint() }
		varint  read = func(r *Reader) { r.Varint() }
		integer read = func(r *Reader) { r.Int() }
		float   read = func(r *Reader) { r.Float() }
		str     read = func(r *Reader) { r.Str() }
		count   read = func(r *Reader) { r.Count(4) }
	)
	cases := []struct {
		name string
		in   []byte
		read read
	}{
		{"byte truncated", nil, byt},
		{"byte trailing", []byte{1, 2}, byt},
		{"bool truncated", nil, boolean},
		{"bool byte 2", []byte{2}, boolean},
		{"bool trailing", []byte{1, 0}, boolean},
		{"uvarint truncated", nil, uvarint},
		{"uvarint truncated continuation", []byte{0x80}, uvarint},
		{"uvarint non-minimal", nonMinimal, uvarint},
		{"uvarint overflow", overflow, uvarint},
		{"uvarint trailing", []byte{1, 0}, uvarint},
		{"varint truncated", []byte{0xff}, varint},
		{"varint non-minimal", nonMinimal, varint},
		{"varint overflow", overflow, varint},
		{"varint trailing", []byte{1, 0}, varint},
		{"int truncated", nil, integer},
		{"int non-minimal", nonMinimal, integer},
		{"int overflow", overflow, integer},
		{"float truncated", make([]byte, 7), float},
		{"float trailing", make([]byte, 9), float},
		{"string truncated length", nil, str},
		{"string past input", []byte{3, 'a', 'b'}, str},
		{"string non-minimal length", []byte{0x80, 0x00}, str},
		{"string trailing", []byte{1, 'a', 'b'}, str},
		{"count past input", []byte{2, 0, 0, 0, 0, 0, 0, 0}, count},
		{"count truncated", nil, count},
		{"count non-minimal", nonMinimal, count},
		{"count overflow", overflow, count},
	}
	if strconv.IntSize == 32 {
		cases = append(cases, struct {
			name string
			in   []byte
			read read
		}{"int overflows int", binary.AppendVarint(nil, 1<<40), integer})
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(r)
		if err := r.Done(); err == nil {
			t.Errorf("%s: accepted %x", c.name, c.in)
		}
	}
}

// TestReaderErrorSticks checks that after the first failure every read
// returns its zero value, consumes nothing, and leaves the first error
// in place, Fail and Done included.
func TestReaderErrorSticks(t *testing.T) {
	r := NewReader(append([]byte{0x80, 0x00}, AppendString(AppendFloat([]byte{1}, 2), "s")...))
	if r.Uvarint() != 0 {
		t.Fatal("non-minimal varint read a value")
	}
	first := r.Err()
	if first == nil {
		t.Fatal("non-minimal varint accepted")
	}
	if r.Byte() != 0 || r.Bool() || r.Uvarint() != 0 || r.Varint() != 0 || r.Int() != 0 ||
		r.Float() != 0 || r.Str() != "" || r.Count(1) != 0 {
		t.Fatal("a read after the first error returned a value")
	}
	r.Fail(errors.New("second"))
	if err := r.Done(); err != first {
		t.Fatalf("Done = %v, want the first error %v", err, first)
	}
	if !bytes.Equal(r.b, []byte{0x80, 0x00, 1, 0, 0, 0, 0, 0, 0, 0, 0x40, 1, 's'}) {
		t.Fatalf("reads after the error consumed input: %x left", r.b)
	}
}
