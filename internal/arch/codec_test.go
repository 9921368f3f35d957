package arch_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"

	// Links the paper's backends into the dataflow registry.
	_ "github.com/inca-arch/inca/internal/sweep"
)

// goSyntaxDigest is the fingerprint oracle: FNV-1a over fmt's %#v
// rendering of c, in 16 hex digits.
func goSyntaxDigest(c arch.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", c)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Edge values the random filler draws from besides uniform bits.
var (
	edgeStrings = []string{
		"", "INCA", "RRAM (TaOx/HfOx)", `quo"te`, `back\slash`, "\\\"",
		"INCA-\xff", "\xff", "\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80",
		"日本語", "\x00\x01\x7f", "tab\tnew\nline", "  ", "�",
		"`back`tick`",
	}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.225e-308, 2.2250738585072014e-308, math.MaxFloat64,
		1e21, 1e20, 9.999999999999999e20, 1e-4, 1e-5, 1e6, 999999, 0.1, -1.5,
		240e3, 24e6, 1.03e-6, 0.34,
	}
	edgeInts = []int64{0, 1, -1, 16, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
)

// fillRandom sets every field of the struct v points to, recursively,
// to a random value biased toward edge cases. NaN is drawn only when
// nan is set, since a config holding NaN never compares equal. It
// fails on a field kind the filler does not know, so a new field of a
// new kind cannot slip past the codec tests.
func fillRandom(t testing.TB, rng *rand.Rand, v reflect.Value, nan bool) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			fillRandom(t, rng, f, nan)
		case reflect.String:
			if rng.Intn(2) == 0 {
				f.SetString(edgeStrings[rng.Intn(len(edgeStrings))])
			} else {
				b := make([]byte, rng.Intn(24))
				rng.Read(b)
				f.SetString(string(b))
			}
		case reflect.Int, reflect.Int64:
			switch rng.Intn(3) {
			case 0:
				f.SetInt(edgeInts[rng.Intn(len(edgeInts))])
			case 1:
				f.SetInt(int64(rng.Intn(2048)) - 1024)
			default:
				f.SetInt(int64(rng.Uint64()))
			}
		case reflect.Float64:
			var x float64
			switch rng.Intn(3) {
			case 0:
				x = edgeFloats[rng.Intn(len(edgeFloats))]
			case 1:
				x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			default:
				x = math.Float64frombits(rng.Uint64())
			}
			if math.IsNaN(x) && !nan {
				x = -0.5
			}
			f.SetFloat(x)
		case reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		default:
			t.Fatalf("fillRandom: field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// randomConfigs is how many random configs TestFingerprintMatchesGoSyntax
// checks.
var randomConfigs = 100_000

// randomConfig returns a reflection-filled random configuration.
func randomConfig(t testing.TB, rng *rand.Rand, nan bool) arch.Config {
	var c arch.Config
	fillRandom(t, rng, reflect.ValueOf(&c).Elem(), nan)
	return c
}

// TestFingerprintMatchesGoSyntax holds the hand renderer behind
// Fingerprint to the fmt %#v digest it replaced, so no cache key or
// store address moves: every backend's default config, the paper's two
// configs, the zero config, and random configs full of NaN, infinities,
// -0, subnormals, format boundaries, quotes and invalid UTF-8.
func TestFingerprintMatchesGoSyntax(t *testing.T) {
	check := func(label string, c arch.Config) {
		t.Helper()
		if got, want := c.Fingerprint(), goSyntaxDigest(c); got != want {
			t.Fatalf("%s: Fingerprint %s, %%#v digest %s for\n%#v", label, got, want, c)
		}
	}
	for _, d := range dataflow.All() {
		check("default config of "+d.Caps.ID, d.Default)
	}
	check("INCA", arch.INCA())
	check("Baseline", arch.Baseline())
	check("zero", arch.Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < randomConfigs; i++ {
		check(fmt.Sprintf("random config %d", i), randomConfig(t, rng, true))
	}
}

// TestConfigBinaryCarriesEveryField fills every field of Config and its
// nested structs by reflection and requires the binary encoding to give
// the same config back: a field the codec does not carry decodes as
// zero and fails the comparison.
func TestConfigBinaryCarriesEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		c := randomConfig(t, rng, false)
		if i == 0 {
			// Every field non-zero, so none can round-trip by accident.
			c = arch.Config{}
			setNonZero(t, reflect.ValueOf(&c).Elem())
		}
		enc := c.AppendWire(nil)
		got, err := arch.DecodeWire(enc)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if got != c {
			t.Fatalf("config %d: round trip changed it\nwant %#v\ngot  %#v", i, c, got)
		}
		if again := got.AppendWire(nil); !bytes.Equal(again, enc) {
			t.Fatalf("config %d: re-encoding differs", i)
		}
	}
	// NaN payloads survive too, bit for bit.
	c := arch.INCA()
	c.DRAM.Knee = math.Float64frombits(0x7ff8dead_beef0001)
	got, err := arch.DecodeWire(c.AppendWire(nil))
	if err != nil || math.Float64bits(got.DRAM.Knee) != math.Float64bits(c.DRAM.Knee) {
		t.Fatalf("NaN payload: got %x, %v", math.Float64bits(got.DRAM.Knee), err)
	}
}

// setNonZero sets every field reachable from v to a distinct non-zero
// value.
func setNonZero(t *testing.T, v reflect.Value) {
	var next int64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			next++
			switch f.Kind() {
			case reflect.Struct:
				walk(f)
			case reflect.String:
				f.SetString(fmt.Sprintf("field-%d-\xff", next))
			case reflect.Int, reflect.Int64:
				f.SetInt(-next * 1000003)
			case reflect.Float64:
				f.SetFloat(float64(next) + 0.25)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("setNonZero: field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	walk(v)
}

// TestDecodeWireRejectsMalformed pins the decoder's strictness: only
// the exact bytes AppendWire produces are accepted.
func TestDecodeWireRejectsMalformed(t *testing.T) {
	inca := arch.INCA()
	good := inca.AppendWire(nil)
	if _, err := arch.DecodeWire(good); err != nil {
		t.Fatal(err)
	}
	// The first varint after the version and the name ("INCA") is the
	// dataflow; spell it with a redundant continuation byte.
	nameEnd := 1 + 1 + len(inca.Name)
	nonMinimal := append(append(append([]byte{}, good[:nameEnd]...), good[nameEnd]|0x80, 0x00), good[nameEnd+1:]...)
	badBool := append([]byte{}, good...)
	badBool[len(badBool)-1] = 2
	cases := map[string][]byte{
		"empty":             nil,
		"unknown version":   append([]byte{2}, good[1:]...),
		"truncated":         good[:len(good)-1],
		"truncated string":  good[:3],
		"trailing bytes":    append(append([]byte{}, good...), 0),
		"non-minimal":       nonMinimal,
		"bool byte 2":       badBool,
		"varint overflow":   {1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"string past input": {1, 0x7f, 'a'},
	}
	for name, raw := range cases {
		if c, err := arch.DecodeWire(raw); err == nil {
			t.Errorf("%s: accepted %x as %#v", name, raw, c)
		}
	}
}

// FuzzConfigBinary feeds arbitrary bytes to DecodeWire: it never
// panics, every input it accepts re-encodes to the same bytes, and the
// decoded config's Fingerprint equals the %#v oracle.
func FuzzConfigBinary(f *testing.F) {
	inca, base := arch.INCA(), arch.Baseline()
	f.Add(inca.AppendWire(nil))
	f.Add(base.AppendWire(nil))
	f.Add((&arch.Config{}).AppendWire(nil))
	odd := arch.INCA()
	odd.Name, odd.Device.Name = "INCA-\xff", `"\`
	odd.CellWidth, odd.DRAM.Knee = math.Copysign(0, -1), math.NaN()
	f.Add(odd.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := arch.DecodeWire(raw)
		if err != nil {
			return
		}
		if again := c.AppendWire(nil); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %x but it re-encodes to %x", raw, again)
		}
		if got, want := c.Fingerprint(), goSyntaxDigest(c); got != want {
			t.Fatalf("Fingerprint %s, %%#v digest %s for %#v", got, want, c)
		}
	})
}

// TestConfigWireBytes pins AppendWire's bytes for the paper's INCA
// configuration. Round-trip tests cannot see a change that moves the
// encoder and the decoder together (a flipped float byte order, a
// different varint); this one can, and a shard and a coordinator built
// from different commits must agree on these bytes.
func TestConfigWireBytes(t *testing.T) {
	inca := arch.INCA()
	const want = "0104494e43410220208001d0021810020820101080018080088004bbbdd7d9df" +
		"7cfb3d72b512d57becfe3d95d626e80b2e113e11ea2d819997c13d0000000065" +
		"cd4d4248afbc9af2d77a3e9a9999999999e93f00000000004c0d410000000060" +
		"e37641000000000000e03f9a9999999999f13f3a8c30e28e79453e48afbc9af2" +
		"d76a3ed71003fad047b13eda06f0a07460463e105252414d202854614f782f48" +
		"664f78290000000065cdcd4176830df4f521a43e5f196547f47ca73ec3f5285c" +
		"8fc2d53f2001"
	if got := fmt.Sprintf("%x", inca.AppendWire(nil)); got != want {
		t.Fatalf("INCA wire bytes moved:\n got %s\nwant %s", got, want)
	}
}
