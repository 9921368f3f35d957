package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"github.com/inca-arch/inca/internal/sweep"
)

// decodeStrict decodes raw as a request body is decoded: unknown fields
// are rejected.
func decodeStrict(raw []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

// cellKeys lists the cache keys of cells in order.
func cellKeys(cells []sweep.Cell) []sweep.Key {
	keys := make([]sweep.Key, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	return keys
}

// FuzzCompileSweep feeds arbitrary bytes to the request compiler behind
// /v1/sweep and /v1/jobs: strict-decode a SweepRequest and compile it.
// It must never panic, and an accepted request's canonical job spec must
// decode and compile again to the same cell keys, in the same order.
func FuzzCompileSweep(f *testing.F) {
	for _, seed := range []string{
		`{"archs":["inca","baseline","gpu"],"models":["LeNet5"],"phases":["inference","training"]}`,
		`{"archs":["INCA"],"dataflows":["ws","os"],"models":["LeNet5","AlexNet"],"phases":["inference"],"batch":8}`,
		`{"dataflows":["is","TitanRTX"],"models":["LeNet5"],"phases":["training"],"overrides":[{"batch":16},{"name":"wide","array_size":64,"adc_bits":6},{}]}`,
		`{"models":["LeNet5"],"phases":["inference"],"tune":{"dataflows":["is","os"],"max_per_dataflow":2}}`,
		`{"archs":["tpu"],"models":["LeNet5"],"phases":["inference"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req SweepRequest
		if !decodeStrict(raw, &req) {
			return
		}
		cs, err := compileSweep(req)
		if err != nil {
			return
		}
		spec, err := canonicalJobSpec(req)
		if err != nil {
			t.Fatalf("compiled request has no canonical spec: %v", err)
		}
		var again SweepRequest
		if !decodeStrict(spec, &again) {
			t.Fatalf("canonical spec does not decode: %s", spec)
		}
		cs2, err := compileSweep(again)
		if err != nil {
			t.Fatalf("canonical spec %s does not compile: %v", spec, err)
		}
		if (cs.tune == nil) != (cs2.tune == nil) || cs.newStyle != cs2.newStyle {
			t.Fatalf("canonical spec %s changed the request kind", spec)
		}
		if a, b := cellKeys(cs.cells), cellKeys(cs2.cells); !slices.Equal(a, b) {
			t.Fatalf("canonical spec %s compiles to keys\n%v\nwant\n%v", spec, b, a)
		}
	})
}

// FuzzCellFromWire feeds arbitrary bytes to the shard side of the wire:
// strict-decode a ShardSweepRequest and rebuild each cell. It must never
// panic, and every accepted cell must survive WireCells → cellFromWire
// with its cache key unchanged.
func FuzzCellFromWire(f *testing.F) {
	cells, err := wirePlan().Cells()
	if err != nil {
		f.Fatal(err)
	}
	wire, err := WireCells(cells)
	if err != nil {
		f.Fatal(err)
	}
	// The whole plan, then each cell on its own: small inputs give the
	// mutator more valid JSON to work from.
	for _, cells := range append([][]ShardCell{wire}, splitCells(wire)...) {
		seed, err := json.Marshal(ShardSweepRequest{Cells: cells})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	// A pre-registry cell (no dataflow) and an unknown backend.
	f.Add([]byte(`{"cells":[{"seq":3,"arch":"custom","config":` + string(wire[0].Config) + `,"model":"LeNet5","phase":"training"}]}`))
	f.Add([]byte(`{"cells":[{"seq":0,"arch":"X","dataflow":"tpu","fixed":true,"config":{},"model":"LeNet5","phase":"inference"}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req ShardSweepRequest
		if !decodeStrict(raw, &req) {
			return
		}
		for _, wc := range req.Cells {
			c, err := cellFromWire(wc)
			if err != nil {
				continue
			}
			back, err := WireCells([]sweep.Cell{c})
			if err != nil {
				t.Fatalf("cell %d: accepted cell does not re-encode: %v", wc.Seq, err)
			}
			c2, err := cellFromWire(back[0])
			if err != nil {
				t.Fatalf("cell %d: re-encoded cell rejected: %v", wc.Seq, err)
			}
			if c2.Key() != c.Key() {
				t.Fatalf("cell %d: key %v after the round trip, want %v", wc.Seq, c2.Key(), c.Key())
			}
		}
	})
}

// splitCells returns each wire cell as a one-cell list.
func splitCells(cells []ShardCell) [][]ShardCell {
	out := make([][]ShardCell, len(cells))
	for i := range cells {
		out[i] = cells[i : i+1]
	}
	return out
}
