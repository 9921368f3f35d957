package arch

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/inca-arch/inca/internal/bin"
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
	b = bin.AppendString(b, c.Name)
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
		b = bin.AppendFloat(b, v)
	}
	b = bin.AppendString(b, d.Name)
	for _, v := range [...]float64{d.Endurance, c.CellWidth, c.CellLength, c.ScaleFactor} {
		b = bin.AppendFloat(b, v)
	}
	b = binary.AppendVarint(b, int64(c.CellsPerFootprint))
	if c.WriteReadOverlap {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeWire parses an AppendWire encoding without validating the
// configuration. It accepts exactly the bytes AppendWire produces: an
// empty input, an unknown version, and anything bin.Reader rejects
// (truncation, trailing bytes, a non-minimal varint, an int that
// overflows int, a bool byte other than 0 or 1) are all errors.
func DecodeWire(b []byte) (Config, error) {
	r := bin.NewReader(b)
	if v := r.Byte(); v != binaryVersion {
		r.Fail(fmt.Errorf("unknown version %d", v))
	}
	var c Config
	c.Name = r.Str()
	c.Dataflow = Dataflow(r.Int())
	for _, p := range [...]*int{
		&c.SubarrayRows, &c.SubarrayCols, &c.StackedPlanes,
		&c.Tiles, &c.TileSize, &c.MacroSize,
		&c.CellBits, &c.ADCBits, &c.SubarraysPerADC,
		&c.WeightBits, &c.ActivationBits, &c.BatchSize} {
		*p = r.Int()
	}
	c.Buffer.CapacityBytes = r.Varint()
	c.Buffer.BusWidthBits = r.Varint()
	d := &c.Device
	for _, p := range [...]*float64{
		&c.Buffer.ReadEnergy, &c.Buffer.WriteEnergy, &c.Buffer.BeatLatency,
		&c.DRAM.EnergyPerByte, &c.DRAM.PeakBandwidth, &c.DRAM.BaseLatency, &c.DRAM.Knee,
		&d.ROn, &d.ROff, &d.ReadVoltage, &d.WriteVoltage,
		&d.ReadPulse, &d.WritePulse, &d.OnCellPower, &d.OffCellPower} {
		*p = r.Float()
	}
	d.Name = r.Str()
	for _, p := range [...]*float64{&d.Endurance, &c.CellWidth, &c.CellLength, &c.ScaleFactor} {
		*p = r.Float()
	}
	c.CellsPerFootprint = r.Int()
	c.WriteReadOverlap = r.Bool()
	if err := r.Done(); err != nil {
		return Config{}, fmt.Errorf("arch: decoding binary config: %w", err)
	}
	return c, nil
}
