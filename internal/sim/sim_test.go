package sim

import (
	"errors"
	"strings"
	"testing"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
)

func TestPhaseString(t *testing.T) {
	if Inference.String() != "inference" || Training.String() != "training" {
		t.Fatal("phase names mismatch")
	}
}

func TestUtilizationWeighting(t *testing.T) {
	r := &Report{
		Layers: []LayerResult{
			{Layer: nn.Layer{Kind: nn.Conv, OutC: 1, OutH: 1, OutW: 1, InC: 1, KH: 1, KW: 1},
				Utilization: 1.0, AllocatedCells: 100},
			{Layer: nn.Layer{Kind: nn.Conv, OutC: 1, OutH: 1, OutW: 1, InC: 1, KH: 1, KW: 1},
				Utilization: 0.0, AllocatedCells: 300},
		},
	}
	if got := r.Utilization(); got != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25 (allocation-weighted)", got)
	}
}

func TestUtilizationIgnoresNonCompute(t *testing.T) {
	r := &Report{
		Layers: []LayerResult{
			{Layer: nn.Layer{Kind: nn.ReLU}, Utilization: 0.1, AllocatedCells: 1000},
			{Layer: nn.Layer{Kind: nn.Conv, OutC: 1, OutH: 1, OutW: 1, InC: 1, KH: 1, KW: 1},
				Utilization: 0.5, AllocatedCells: 10},
		},
	}
	if got := r.Utilization(); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	empty := &Report{}
	if empty.Utilization() != 0 {
		t.Fatal("empty report should have zero utilization")
	}
}

func TestEnergyPerImageAndThroughput(t *testing.T) {
	var res metrics.Result
	res.Energy.Add(metrics.ADC, 64)
	res.Latency = 2
	r := &Report{Batch: 64, Total: res}
	if got, err := r.EnergyPerImage(); err != nil || got != 1 {
		t.Fatalf("EnergyPerImage = %v, %v, want 1", got, err)
	}
	if got := r.Throughput(); got != 32 {
		t.Fatalf("Throughput = %v, want 32", got)
	}
	zero := &Report{}
	if _, err := zero.EnergyPerImage(); !errors.Is(err, ErrZeroBatch) {
		t.Fatalf("zero-batch EnergyPerImage err = %v, want ErrZeroBatch", err)
	}
	var nilRep *Report
	if _, err := nilRep.EnergyPerImage(); !errors.Is(err, ErrEmptyReport) {
		t.Fatalf("nil-report EnergyPerImage err = %v, want ErrEmptyReport", err)
	}
	if zero.Throughput() != 0 {
		t.Fatal("zero report should not divide by zero")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Arch: "INCA", Network: "VGG16", Phase: Training, Batch: 64}
	s := r.String()
	for _, want := range []string{"INCA", "VGG16", "training", "64"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestParsePhase pins the one phase-name parser: it inverts String and
// refuses anything else with the text the HTTP API answers in its 400.
func TestParsePhase(t *testing.T) {
	for _, want := range []Phase{Inference, Training} {
		if got, err := ParsePhase(want.String()); err != nil || got != want {
			t.Errorf("ParsePhase(%q) = %v, %v", want.String(), got, err)
		}
	}
	_, err := ParsePhase("x")
	if err == nil || err.Error() != `unknown phase "x" (want inference or training)` {
		t.Errorf("ParsePhase(x) error = %v", err)
	}
	var p Phase
	if err := p.UnmarshalText([]byte("Training")); err == nil {
		t.Errorf("UnmarshalText accepted a miscased name")
	}
}
