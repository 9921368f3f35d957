package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// TestReportJSONRoundTrip pins the wire schema both ways on a real
// simulation: marshal → unmarshal → marshal must be byte-identical (the
// HTTP client depends on this to hand back reports indistinguishable
// from server-side ones).
func TestReportJSONRoundTrip(t *testing.T) {
	sm := sim.Wrap(core.New(arch.INCA()), "is")
	rep, err := sm.Simulate(context.Background(), nn.LeNet5(), sim.Training)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded sim.Report
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip is not byte-identical:\n%s\n%s", first, second)
	}

	if decoded.Arch != rep.Arch || decoded.Network != rep.Network ||
		decoded.Phase != rep.Phase || decoded.Batch != rep.Batch {
		t.Fatalf("identity fields lost: %+v", decoded)
	}
	if decoded.Total.Energy.Total() != rep.Total.Energy.Total() {
		t.Fatalf("energy total drifted: %v vs %v",
			decoded.Total.Energy.Total(), rep.Total.Energy.Total())
	}
	if decoded.Total.Latency != rep.Total.Latency {
		t.Fatalf("latency drifted: %v vs %v", decoded.Total.Latency, rep.Total.Latency)
	}
	if len(decoded.Layers) != len(rep.Layers) {
		t.Fatalf("layer count: %d vs %d", len(decoded.Layers), len(rep.Layers))
	}
	for i := range decoded.Layers {
		if decoded.Layers[i].Layer.Kind != rep.Layers[i].Layer.Kind {
			t.Fatalf("layer %d kind: %v vs %v", i,
				decoded.Layers[i].Layer.Kind, rep.Layers[i].Layer.Kind)
		}
	}
	if decoded.Utilization() != rep.Utilization() {
		t.Fatalf("utilization drifted: %v vs %v", decoded.Utilization(), rep.Utilization())
	}
	if decoded.Throughput() != rep.Throughput() {
		t.Fatalf("throughput drifted: %v vs %v", decoded.Throughput(), rep.Throughput())
	}
}

func TestReportJSONRejectsBadEnums(t *testing.T) {
	var rep sim.Report
	if err := json.Unmarshal([]byte(`{"phase":"speculation"}`), &rep); err == nil {
		t.Fatal("unknown phase decoded without error")
	}
	if err := json.Unmarshal([]byte(
		`{"phase":"inference","layers":[{"kind":"quantum"}]}`), &rep); err == nil {
		t.Fatal("unknown layer kind decoded without error")
	}
	if err := json.Unmarshal([]byte(
		`{"phase":"inference","total":{"energy":{"dram_j":-1}}}`), &rep); err == nil {
		t.Fatal("negative energy decoded without error")
	}
}
