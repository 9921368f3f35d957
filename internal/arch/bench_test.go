package arch

import "testing"

// fingerprintSink keeps the compiler from discarding the measured call.
var fingerprintSink string

// BenchmarkConfigFingerprint is the layer probe for a cell key's config
// segment: one Fingerprint of the INCA configuration.
func BenchmarkConfigFingerprint(b *testing.B) {
	c := INCA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = c.Fingerprint()
	}
}

// BenchmarkConfigBinary is the layer probe for the config's shard-wire
// form: encode appends into a reused buffer, as WireCells does for a
// batch; decode parses one encoding, as the shard does per cell.
func BenchmarkConfigBinary(b *testing.B) {
	c := INCA()
	enc := c.AppendWire(nil)
	buf := make([]byte, 0, len(enc))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = c.AppendWire(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeWire(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
