package store

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// TestRecordV2Bytes pins the bytes encodeRecordV2 writes: literally for
// one small hand-built report, and as a SHA-256 over the records of
// every zoo network on the is, ws and gpu backends in both phases.
// Round-trip tests cannot see a change that moves the encoder and the
// decoder together; segments already on disk would stop opening.
func TestRecordV2Bytes(t *testing.T) {
	rep := &sim.Report{Arch: "INCA", Network: "net", Phase: sim.Training, Batch: 2}
	for i, c := range metrics.Components() {
		rep.Total.Energy.Add(c, float64(i+1)/8)
	}
	rep.Total.Latency = 1.5
	rep.Total.Counts = metrics.Counts{RRAMReads: 1, RRAMWrites: 2, ADCConversions: 3, DACConversions: 4,
		BufferAccesses: 5, DRAMAccesses: -6, DigitalOps: 300}
	lr := sim.LayerResult{Layer: nn.Layer{Name: "fc1", Kind: nn.FC}, Utilization: 0.75, AllocatedCells: 64}
	lr.Result.Energy.Add(metrics.ADC, 1e-9)
	lr.Result.Latency = 2e-6
	lr.Result.Counts.RRAMReads = 128
	rep.Layers = []sim.LayerResult{lr}
	payload, err := encodeRecordV2(nil, "INCA/is/fixed/net/training", 1_700_000_000_123_456_789, rep)
	if err != nil {
		t.Fatal(err)
	}
	const want = "1a494e43412f69732f66697865642f6e65742f747261696e696e67aab4aed8c7" +
		"bfce972f04494e4341036e65740104000000000000c03f000000000000d03f00" +
		"0000000000d83f000000000000e03f000000000000e43f000000000000e83f00" +
		"0000000000f83f020406080a0bd8040103666331020000000000000000000000" +
		"0000000000000000000000000095d626e80b2e113e0000000000000000000000" +
		"00000000008dedb5a0f7c6c03e8002000000000000000000000000e83f8001"
	if got := fmt.Sprintf("%x", payload); got != want {
		t.Fatalf("v2 record bytes moved:\n got %s\nwant %s", got, want)
	}

	sum := sha256.New()
	for _, c := range simulate(t, []string{"is", "ws", "gpu"}, nn.Zoo(), []sim.Phase{sim.Inference, sim.Training}) {
		payload, err := encodeRecordV2(nil, c.key, 1_700_000_000_123_456_789, c.rep)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		sum.Write(payload)
	}
	const wantSum = "66b4f27f0bbc818804eb155a155b7bce3378a55f8d26ebfd79b5e2c4c141564c"
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != wantSum {
		t.Fatalf("v2 records of the zoo sweep moved: SHA-256 %s, want %s", got, wantSum)
	}
}
