package arch

import "strconv"

// Fingerprint returns a stable hex digest of every field in the
// configuration. Two configs share a fingerprint exactly when they are
// equal, so the digest serves as a memoization key for simulation
// results: it is the config segment of the sweep engine's cell key
// (sweep.Cell.Key).
//
// The digest is the 16-hex-digit FNV-1a hash of the config's Go-syntax
// rendering, the exact bytes fmt's %#v prints for it. appendGoSyntax
// renders those bytes by hand into a stack buffer, with no fmt and no
// reflection, so every cache key, store address and ring placement
// stays what the %#v digest made it; TestFingerprintMatchesGoSyntax
// holds the renderer to the fmt oracle. The digest is not meant to be
// stable across code changes that add or rename fields.
func (c Config) Fingerprint() string {
	var buf [1024]byte
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, b := range c.appendGoSyntax(buf[:0]) {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-1a 64 prime
	}
	const hexDigits = "0123456789abcdef"
	var out [16]byte
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// appendGoSyntax appends c as fmt's %#v renders it.
func (c *Config) appendGoSyntax(b []byte) []byte {
	b = append(b, "arch.Config{Name:"...)
	b = strconv.AppendQuote(b, c.Name)
	b = appendGoInt(b, ", Dataflow:", int64(c.Dataflow))
	b = appendGoInt(b, ", SubarrayRows:", int64(c.SubarrayRows))
	b = appendGoInt(b, ", SubarrayCols:", int64(c.SubarrayCols))
	b = appendGoInt(b, ", StackedPlanes:", int64(c.StackedPlanes))
	b = appendGoInt(b, ", Tiles:", int64(c.Tiles))
	b = appendGoInt(b, ", TileSize:", int64(c.TileSize))
	b = appendGoInt(b, ", MacroSize:", int64(c.MacroSize))
	b = appendGoInt(b, ", CellBits:", int64(c.CellBits))
	b = appendGoInt(b, ", ADCBits:", int64(c.ADCBits))
	b = appendGoInt(b, ", SubarraysPerADC:", int64(c.SubarraysPerADC))
	b = appendGoInt(b, ", WeightBits:", int64(c.WeightBits))
	b = appendGoInt(b, ", ActivationBits:", int64(c.ActivationBits))
	b = appendGoInt(b, ", BatchSize:", int64(c.BatchSize))

	b = appendGoInt(b, ", Buffer:mem.Buffer{CapacityBytes:", c.Buffer.CapacityBytes)
	b = appendGoInt(b, ", BusWidthBits:", c.Buffer.BusWidthBits)
	b = appendGoFloat(b, ", ReadEnergy:", c.Buffer.ReadEnergy)
	b = appendGoFloat(b, ", WriteEnergy:", c.Buffer.WriteEnergy)
	b = appendGoFloat(b, ", BeatLatency:", c.Buffer.BeatLatency)

	b = appendGoFloat(b, "}, DRAM:mem.DRAM{EnergyPerByte:", c.DRAM.EnergyPerByte)
	b = appendGoFloat(b, ", PeakBandwidth:", c.DRAM.PeakBandwidth)
	b = appendGoFloat(b, ", BaseLatency:", c.DRAM.BaseLatency)
	b = appendGoFloat(b, ", Knee:", c.DRAM.Knee)

	d := &c.Device
	b = appendGoFloat(b, "}, Device:rram.Device{ROn:", d.ROn)
	b = appendGoFloat(b, ", ROff:", d.ROff)
	b = appendGoFloat(b, ", ReadVoltage:", d.ReadVoltage)
	b = appendGoFloat(b, ", WriteVoltage:", d.WriteVoltage)
	b = appendGoFloat(b, ", ReadPulse:", d.ReadPulse)
	b = appendGoFloat(b, ", WritePulse:", d.WritePulse)
	b = appendGoFloat(b, ", OnCellPower:", d.OnCellPower)
	b = appendGoFloat(b, ", OffCellPower:", d.OffCellPower)
	b = append(b, ", Name:"...)
	b = strconv.AppendQuote(b, d.Name)
	b = appendGoFloat(b, ", Endurance:", d.Endurance)

	b = appendGoFloat(b, "}, CellWidth:", c.CellWidth)
	b = appendGoFloat(b, ", CellLength:", c.CellLength)
	b = appendGoFloat(b, ", ScaleFactor:", c.ScaleFactor)
	b = appendGoInt(b, ", CellsPerFootprint:", int64(c.CellsPerFootprint))
	b = append(b, ", WriteReadOverlap:"...)
	b = strconv.AppendBool(b, c.WriteReadOverlap)
	return append(b, '}')
}

// appendGoInt appends the field prefix and v in decimal, as %#v prints
// a signed integer.
func appendGoInt(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

// appendGoFloat appends the field prefix and v as %#v prints a float64:
// the shortest 'g' form ("NaN", "+Inf" and "-Inf" included).
func appendGoFloat(b []byte, prefix string, v float64) []byte {
	return strconv.AppendFloat(append(b, prefix...), v, 'g', -1, 64)
}
