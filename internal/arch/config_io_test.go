package arch

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	for _, c := range []Config{INCA(), Baseline()} {
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("%s: round trip changed the config\nwant %+v\ngot  %+v", c.Name, c, got)
		}
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inca.json")
	c := INCA()
	c.BatchSize = 16
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchSize != 16 || got.Name != "INCA" {
		t.Fatalf("loaded config = %+v", got)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	// Structurally valid JSON, architecturally invalid config.
	bad := strings.NewReader(`{"Name":"x","SubarrayRows":0}`)
	if _, err := ReadJSON(bad); err == nil {
		t.Fatal("accepted invalid config")
	}
	// Unknown fields rejected (typo protection).
	typo := strings.NewReader(`{"SubbarayRows":16}`)
	if _, err := ReadJSON(typo); err == nil {
		t.Fatal("accepted unknown field")
	}
	// Garbage.
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("accepted missing file")
	}
}

// FuzzDecodeConfig feeds arbitrary bytes to decodeJSON: it never panics,
// and every configuration it accepts re-decodes equal after WriteJSON.
func FuzzDecodeConfig(f *testing.F) {
	var good bytes.Buffer
	if err := INCA().WriteJSON(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(`{"Name":"x","SubarrayRows":16,"CellWidth":1e-7,"Dataflow":1}`))
	f.Add([]byte(`{"SubbarayRows":16}`))
	f.Add([]byte(`{"SubarrayRows":-1e400}`))
	f.Add([]byte(`{"Name":"\ud800"} trailing`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"Name":`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := decodeJSON(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", raw, err)
		}
		again, err := decodeJSON(&buf)
		if err != nil || again != c {
			t.Fatalf("%q decoded to %+v; re-decoded to %+v, %v", raw, c, again, err)
		}
	})
}
