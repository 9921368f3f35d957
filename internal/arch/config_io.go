package arch

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// MarshalJSON-friendly persistence: configurations round-trip through JSON
// so users can define custom accelerators for cmd/inca-sim without
// recompiling. All fields of Config, mem.Buffer, mem.DRAM and rram.Device
// are exported, so the standard encoder captures the full state.

// WriteJSON serializes the configuration to w, indented.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("arch: encoding config: %w", err)
	}
	return nil
}

// Save writes the configuration to a JSON file.
func (c Config) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("arch: %w", err)
	}
	defer f.Close()
	return c.WriteJSON(f)
}

// ReadJSON parses a configuration from r, rejecting unknown fields, and
// validates it.
func ReadJSON(r io.Reader) (Config, error) {
	c, err := decodeJSON(r)
	if err != nil {
		return Config{}, err
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// decodeJSON parses a configuration from r, rejecting unknown fields,
// without validating it.
func decodeJSON(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("arch: decoding config: %w", err)
	}
	return c, nil
}

// Load reads and validates a configuration from a JSON file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("arch: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

// binaryVersion leads every binary encoding; a layout change bumps it.
const binaryVersion = 1

// AppendWire appends the configuration's exact binary encoding to b:
// the version byte, then every field in declaration order (nested
// structs inline). Strings are a uvarint length and their raw bytes,
// carried verbatim even when they are not valid UTF-8; ints are varints;
// floats are their IEEE-754 bits, little-endian, so NaN payloads, -0
// and subnormals survive; the bool is one byte. DecodeWire inverts it
// field for field, so the decoded config has the same Fingerprint.
func (c *Config) AppendWire(b []byte) []byte {
	b = append(b, binaryVersion)
	b = appendString(b, c.Name)
	for _, v := range [...]int{int(c.Dataflow),
		c.SubarrayRows, c.SubarrayCols, c.StackedPlanes,
		c.Tiles, c.TileSize, c.MacroSize,
		c.CellBits, c.ADCBits, c.SubarraysPerADC,
		c.WeightBits, c.ActivationBits, c.BatchSize} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, c.Buffer.CapacityBytes)
	b = binary.AppendVarint(b, c.Buffer.BusWidthBits)
	d := &c.Device
	for _, v := range [...]float64{
		c.Buffer.ReadEnergy, c.Buffer.WriteEnergy, c.Buffer.BeatLatency,
		c.DRAM.EnergyPerByte, c.DRAM.PeakBandwidth, c.DRAM.BaseLatency, c.DRAM.Knee,
		d.ROn, d.ROff, d.ReadVoltage, d.WriteVoltage,
		d.ReadPulse, d.WritePulse, d.OnCellPower, d.OffCellPower} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = appendString(b, d.Name)
	for _, v := range [...]float64{d.Endurance, c.CellWidth, c.CellLength, c.ScaleFactor} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.AppendVarint(b, int64(c.CellsPerFootprint))
	if c.WriteReadOverlap {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeWire parses an AppendWire encoding without validating the
// configuration. It accepts exactly the bytes AppendWire produces:
// an empty input, an unknown version, truncation, trailing bytes, a
// non-minimal varint, an int that overflows int, and a bool byte other
// than 0 or 1 are all errors.
func DecodeWire(b []byte) (Config, error) {
	if len(b) == 0 {
		return Config{}, errors.New("arch: decoding binary config: empty input")
	}
	if b[0] != binaryVersion {
		return Config{}, fmt.Errorf("arch: decoding binary config: unknown version %d", b[0])
	}
	r := binReader{b: b[1:]}
	var c Config
	c.Name = r.string()
	c.Dataflow = Dataflow(r.int())
	for _, p := range [...]*int{
		&c.SubarrayRows, &c.SubarrayCols, &c.StackedPlanes,
		&c.Tiles, &c.TileSize, &c.MacroSize,
		&c.CellBits, &c.ADCBits, &c.SubarraysPerADC,
		&c.WeightBits, &c.ActivationBits, &c.BatchSize} {
		*p = r.int()
	}
	c.Buffer.CapacityBytes = r.varint()
	c.Buffer.BusWidthBits = r.varint()
	d := &c.Device
	for _, p := range [...]*float64{
		&c.Buffer.ReadEnergy, &c.Buffer.WriteEnergy, &c.Buffer.BeatLatency,
		&c.DRAM.EnergyPerByte, &c.DRAM.PeakBandwidth, &c.DRAM.BaseLatency, &c.DRAM.Knee,
		&d.ROn, &d.ROff, &d.ReadVoltage, &d.WriteVoltage,
		&d.ReadPulse, &d.WritePulse, &d.OnCellPower, &d.OffCellPower} {
		*p = r.float()
	}
	d.Name = r.string()
	for _, p := range [...]*float64{&d.Endurance, &c.CellWidth, &c.CellLength, &c.ScaleFactor} {
		*p = r.float()
	}
	c.CellsPerFootprint = r.int()
	c.WriteReadOverlap = r.bool()
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return Config{}, fmt.Errorf("arch: decoding binary config: %w", r.err)
	}
	return c, nil
}

// binReader consumes a binary config field by field. The first error
// sticks: later reads return zero values and consume nothing.
type binReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated")

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errTruncated
		return 0
	case n < 0:
		r.err = errors.New("varint overflows 64 bits")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.err = errors.New("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *binReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		if r.err == nil {
			r.err = fmt.Errorf("int %d overflows int", v)
		}
		return 0
	}
	return int(v)
}

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *binReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.err = errTruncated
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 {
		r.err = errTruncated
		return false
	}
	v := r.b[0]
	if v > 1 {
		r.err = fmt.Errorf("bool byte %d", v)
		return false
	}
	r.b = r.b[1:]
	return v == 1
}
