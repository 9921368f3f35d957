package sweep

import (
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// paperNetworks names the paper's six ImageNet CNNs in presentation
// order (nn.PaperModels).
var paperNetworks = [...]string{"VGG16", "VGG19", "ResNet18", "ResNet50", "MobileNetV2", "MNasNet"}

// PaperPlan returns the full evaluation cross product of the paper's
// Figs. 11–16: {INCA, WS baseline, GPU} × the six ImageNet CNNs ×
// {inference, training} — 36 cells. It is the reference workload for the
// engine's benchmarks. The networks are the shared zoo instances
// (nn.ByName), so the plan's networks are read-only.
func PaperPlan() Plan {
	nets := make([]*nn.Network, len(paperNetworks))
	for i, name := range paperNetworks {
		net, err := nn.ByName(name)
		if err != nil {
			panic(err) // the zoo always has the paper models
		}
		nets[i] = net
	}
	return Plan{
		Archs:    []Arch{INCAArch(), BaselineArch(), GPUArch()},
		Networks: nets,
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
}
