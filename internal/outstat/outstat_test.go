package outstat

import (
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/baseline"
	"github.com/inca-arch/inca/internal/conformance"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

func TestConformance(t *testing.T) {
	d, err := dataflow.Get(DataflowID)
	if err != nil {
		t.Fatal(err)
	}
	conformance.Run(t, d)
}

// TestADCAmortization pins the backend's structural claim: converting
// each output element once must take far fewer ADC conversions than the
// WS baseline's per-cycle column scans on the same network.
func TestADCAmortization(t *testing.T) {
	net := nn.LeNet5()
	osRep := New(arch.OutStationary()).Simulate(net, sim.Inference)
	wsRep := baseline.New(arch.Baseline()).Simulate(net, sim.Inference)
	if osRep.Total.Counts.ADCConversions*10 >= wsRep.Total.Counts.ADCConversions {
		t.Errorf("OS conversions %d not well below WS %d",
			osRep.Total.Counts.ADCConversions, wsRep.Total.Counts.ADCConversions)
	}
}

// TestAspectTradesRefetch pins the mapping knob: a taller accumulator
// tile (more positions resident) must reduce weight traffic relative to
// a wider tile on a conv-heavy network, and vice versa for inputs.
func TestAspectTradesRefetch(t *testing.T) {
	tall := arch.OutStationary()
	tall.SubarrayRows, tall.SubarrayCols = 512, 32
	wide := arch.OutStationary()
	wide.SubarrayRows, wide.SubarrayCols = 32, 512

	l := nn.Layer{Kind: nn.Conv, Name: "conv", InC: 64, OutC: 128, KH: 3, KW: 3,
		InH: 32, InW: 32, OutH: 32, OutW: 32}

	gTall := New(tall).layerGeometry(&l)
	gWide := New(wide).layerGeometry(&l)
	if gTall.posBlocks >= gWide.posBlocks {
		t.Errorf("tall tile posBlocks %d not below wide %d", gTall.posBlocks, gWide.posBlocks)
	}
	if gTall.chBlocks <= gWide.chBlocks {
		t.Errorf("tall tile chBlocks %d not above wide %d", gTall.chBlocks, gWide.chBlocks)
	}
}

func TestTrainingPanicsAtMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("training on the bare machine did not panic")
		}
	}()
	New(arch.OutStationary()).Simulate(nn.LeNet5(), sim.Training)
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("invalid config did not panic")
		}
	}()
	New(arch.Config{})
}
