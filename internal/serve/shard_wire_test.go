package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"regexp"
	"testing"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// wirePlan is the shard-wire fixture: every legacy arch plus the
// inference-only output-stationary backend, so the cells cover a fixed
// (GPU) config and an error cell (OS training) next to full reports.
func wirePlan() sweep.Plan {
	return sweep.Plan{
		Archs:    []sweep.Arch{sweep.INCAArch(), sweep.BaselineArch(), sweep.GPUArch(), sweep.OutStatArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
}

// legacyShardResponse is the shard response as it was encoded when the
// report rode the wire as pre-marshaled raw JSON; the typed form must
// produce the same bytes.
type legacyShardResponse struct {
	ShardID string            `json:"shard_id,omitempty"`
	Cells   []legacyShardCell `json:"cells"`
	Cache   sweep.CacheStats  `json:"cache"`
}

type legacyShardCell struct {
	Seq      int             `json:"seq"`
	Cached   bool            `json:"cached"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
}

// runLocal evaluates cells in-process for reference reports.
func runLocal(tb testing.TB, cells []sweep.Cell) []sweep.Result {
	tb.Helper()
	results, err := sweep.RunCells(context.Background(), cells, sweep.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// encodeShardResponse encodes resp the way writeJSON does.
func encodeShardResponse(tb testing.TB, resp ShardSweepResponse) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardWireReportBytes posts cells to /v1/shard/sweep and asserts
// the "report" value of every cell in the response body is exactly
// json.Marshal of the same report evaluated in-process.
func TestShardWireReportBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cells, err := wirePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := WireCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ShardSweepRequest{Cells: wire})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/shard/sweep", string(body), nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var got legacyShardResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	local := runLocal(t, cells)
	errCells := 0
	for i, cr := range got.Cells {
		if local[i].Err != nil {
			if cr.Error == "" || cr.Report != nil {
				t.Fatalf("cell %d: want an error and no report, got %+v", i, cr)
			}
			errCells++
			continue
		}
		want, err := json.Marshal(local[i].Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cr.Report, want) {
			t.Fatalf("cell %d report bytes differ:\n%s\nvs\n%s", i, cr.Report, want)
		}
	}
	if errCells != 1 {
		t.Fatalf("fixture produced %d error cells, want 1 (OS training)", errCells)
	}
}

// TestShardWireRoundTrip encodes a shard response, decodes it and lifts
// it through ShardResults: the bytes match the raw-JSON encoding the
// wire used before, and every report marshals back to its original
// bytes, with seq, cached, attempts and errors intact.
func TestShardWireRoundTrip(t *testing.T) {
	cells, err := wirePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	local := runLocal(t, cells)
	resp := ShardSweepResponse{ShardID: "s-1", Cells: wireResults(local, true), Cache: sweep.CacheStats{Hits: 3, Misses: 5}}
	raw := encodeShardResponse(t, resp)

	legacy := legacyShardResponse{ShardID: resp.ShardID, Cache: resp.Cache}
	legacy.Cells = make([]legacyShardCell, len(local))
	for i, res := range local {
		lc := &legacy.Cells[i]
		lc.Seq, lc.Cached, lc.Attempts = res.Cell.Seq, res.Cached, res.Attempts
		if res.Err != nil {
			lc.Error = res.Err.Error()
			continue
		}
		if lc.Report, err = json.Marshal(res.Report); err != nil {
			t.Fatal(err)
		}
	}
	var legacyRaw bytes.Buffer
	if err := json.NewEncoder(&legacyRaw).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, legacyRaw.Bytes()) {
		t.Fatalf("shard wire bytes changed:\n%s\nvs\n%s", raw, legacyRaw.Bytes())
	}

	var decoded ShardSweepResponse
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := ShardResults(cells, decoded)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range back {
		orig := local[i]
		if res.Cell.Seq != orig.Cell.Seq || res.Cached != orig.Cached || res.Attempts != orig.Attempts {
			t.Fatalf("cell %d metadata drifted: %+v vs %+v", i, res, orig)
		}
		if orig.Err != nil {
			if res.Err == nil || res.Err.Error() != orig.Err.Error() {
				t.Fatalf("cell %d error = %v, want %v", i, res.Err, orig.Err)
			}
			continue
		}
		got, err := res.Report.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := orig.Report.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d report drifted across the wire:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestShardResultsRejectsEmptyCell pins the malformed-partial guard: a
// cell with neither error nor report is an error, so the coordinator
// rehashes the partial instead of merging a hole.
func TestShardResultsRejectsEmptyCell(t *testing.T) {
	cells, err := shardPlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	resp := ShardSweepResponse{Cells: []ShardCellResult{{Seq: cells[0].Seq, Attempts: 1}}}
	var decoded ShardSweepResponse
	if err := json.Unmarshal(encodeShardResponse(t, resp), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, err := ShardResults(cells[:1], decoded); err == nil {
		t.Fatal("ShardResults accepted an error-free cell with no report")
	}
}

// TestShardWireTotalsOnlyDiffersInLayers posts the same cells to two
// fresh shards, once plain and once with totals set: the totals reply
// is the full reply with every report's layers array replaced by null,
// and nothing else differs.
func TestShardWireTotalsOnlyDiffersInLayers(t *testing.T) {
	cells, err := wirePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := WireCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(totals bool) []byte {
		t.Helper()
		body, err := json.Marshal(ShardSweepRequest{Cells: wire, Totals: totals})
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Options{})
		resp := post(t, ts.URL+"/v1/shard/sweep", string(body), nil)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("totals=%v: status = %d: %s", totals, resp.StatusCode, raw)
		}
		return raw
	}
	full, totals := reply(false), reply(true)
	// Layer objects hold no arrays, so the first ']' closes the layers.
	layers := regexp.MustCompile(`"layers":\[[^\]]*\]`)
	if n := len(layers.FindAll(full, -1)); n != 7 {
		t.Fatalf("full reply carries %d layers arrays, want one per report (7)", n)
	}
	if want := layers.ReplaceAll(full, []byte(`"layers":null`)); !bytes.Equal(totals, want) {
		t.Fatalf("totals reply is not the full reply with null layers:\n%s\nvs\n%s", totals, want)
	}
}

// fuzzCells is FuzzShardResults' fixed request: a full report cell
// (INCA LeNet5 inference) and an error cell (OS LeNet5 training).
func fuzzCells(tb testing.TB) []sweep.Cell {
	tb.Helper()
	cells, err := wirePlan().Cells()
	if err != nil {
		tb.Fatal(err)
	}
	return []sweep.Cell{cells[0], cells[7]}
}

// FuzzShardResults feeds arbitrary bytes to the coordinator's side of
// the shard wire: decode as a ShardSweepResponse, then lift it against
// a fixed cell list with ShardResults. It must never panic; every
// accepted report re-encodes to exactly the wire form it was decoded
// from, and a totals-only one yields the summary row its wire fields
// state. Seeds (full, totals-only, error-cell, seq-mismatch and
// missing-report responses) live in testdata/fuzz/FuzzShardResults.
func FuzzShardResults(f *testing.F) {
	cells := fuzzCells(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var resp ShardSweepResponse
		if json.Unmarshal(raw, &resp) != nil {
			return
		}
		results, err := ShardResults(cells, resp)
		if err != nil {
			return
		}
		for i, res := range results {
			cr := resp.Cells[i]
			if res.Err != nil {
				continue
			}
			got, err := json.Marshal(res.Report.Wire())
			if err != nil {
				t.Fatalf("cell %d: accepted report does not re-encode: %v", i, err)
			}
			want, err := json.Marshal(cr.Report)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cell %d: accepted report re-encodes differently:\n%s\nvs\n%s", i, got, want)
			}
			if !res.Report.TotalsOnly() {
				continue
			}
			row, w := summaryRow(res, true), cr.Report
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"energy_j", row.EnergyJ, w.Total.Energy.TotalJ},
				{"latency_s", row.LatencyS, w.Total.LatencyS},
				{"energy_per_image_j", row.EnergyPerImageJ, w.EnergyPerImageJ},
				{"throughput_ips", row.ThroughputIPS, w.ThroughputIPS},
				{"utilization", row.Utilization, w.Utilization},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Fatalf("cell %d: totals-only row %s = %v, wire says %v", i, f.name, f.got, f.want)
				}
			}
		}
	})
}

// BenchmarkShardRoundTrip is the layer probe for the shard wire: eight
// warm cells (reports already evaluated) lowered to the wire, encoded as
// the shard encodes them, decoded as the coordinator's client decodes
// them, and lifted back into engine results — with full reports, as
// /v1/simulate and store-backed jobs ask for them, and totals-only, as
// a sharded /v1/sweep does.
func BenchmarkShardRoundTrip(b *testing.B) {
	cells, err := sweep.Plan{
		Archs:    []sweep.Arch{sweep.INCAArch(), sweep.BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}.Cells()
	if err != nil {
		b.Fatal(err)
	}
	local := runLocal(b, cells)
	for _, bc := range []struct {
		name   string
		layers bool
	}{{"full", true}, {"totals", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				raw := encodeShardResponse(b, ShardSweepResponse{ShardID: "s", Cells: wireResults(local, bc.layers)})
				var decoded ShardSweepResponse
				if err := json.Unmarshal(raw, &decoded); err != nil {
					b.Fatal(err)
				}
				if _, err := ShardResults(cells, decoded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
