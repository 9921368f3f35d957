package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"github.com/inca-arch/inca/internal/dataflow"
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
func cellKeys(cells []sweep.Cell) []string {
	keys := make([]string, len(cells))
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
// panic; an accepted cell's key must be the key sweep.Resolve gives its
// dataflow and config, as on the coordinator, and the config of an
// accepted cell on a configurable backend must validate. Every accepted
// cell must also survive WireCells → cellFromWire with its config bytes
// and key unchanged.
func FuzzCellFromWire(f *testing.F) {
	cells, err := wirePlan().Cells()
	if err != nil {
		f.Fatal(err)
	}
	wire := WireCells(cells)
	// The whole plan, then each cell on its own: small inputs give the
	// mutator more valid JSON to work from.
	for _, cells := range append([][]ShardCell{wire}, splitCells(wire)...) {
		seed, err := json.Marshal(ShardSweepRequest{Cells: cells})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	// A cell that names no dataflow, and an unknown backend.
	cfg, err := json.Marshal(wire[0].Config)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"cells":[{"seq":3,"config":` + string(cfg) + `,"model":"LeNet5","phase":"training"}]}`))
	f.Add([]byte(`{"cells":[{"seq":0,"dataflow":"tpu","config":` + string(cfg) + `,"model":"LeNet5","phase":"inference"}]}`))
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
			cfg := c.Config
			ax, err := sweep.Resolve(wc.Dataflow, &cfg, 0)
			if err != nil {
				t.Fatalf("cell %d: accepted cell does not resolve: %v", wc.Seq, err)
			}
			want := sweep.Cell{Arch: ax, Config: cfg, Network: c.Network, Phase: c.Phase}.Key()
			if c.Key() != want {
				t.Fatalf("cell %d: key %s, Resolve gives %s", wc.Seq, c.Key(), want)
			}
			d, err := dataflow.Get(wc.Dataflow)
			if err != nil {
				t.Fatal(err)
			}
			if d.Caps.Configurable {
				if err := c.Config.Validate(); err != nil {
					t.Fatalf("cell %d: accepted an invalid %s config: %v", wc.Seq, d.Caps.ID, err)
				}
			}
			back := WireCells([]sweep.Cell{c})
			if !bytes.Equal(back[0].Config, wc.Config) {
				t.Fatalf("cell %d: config re-encodes to %x, want %x", wc.Seq, back[0].Config, wc.Config)
			}
			c2, err := cellFromWire(back[0])
			if err != nil {
				t.Fatalf("cell %d: re-encoded cell rejected: %v", wc.Seq, err)
			}
			if c2.Key() != c.Key() {
				t.Fatalf("cell %d: key %s after the round trip, want %s", wc.Seq, c2.Key(), c.Key())
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
