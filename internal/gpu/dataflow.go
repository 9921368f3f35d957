package gpu

import (
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the GPU roofline backend.
const DataflowID = "gpu"

func init() { dataflow.Register(gpuDataflow{}) }

// gpuDataflow adapts the Titan RTX roofline to the dataflow.Dataflow
// interface. The backend is fixed: arch.Config does not shape the
// machine, every override collapses to one sweep cache cell, and the
// mapping space is the single roofline point.
type gpuDataflow struct{}

func (gpuDataflow) ID() string { return DataflowID }

// gpuCaps is shared by every Capabilities call, so resolving this backend
// allocates nothing; callers must not modify its slices.
var gpuCaps = dataflow.Capabilities{
	ID:           DataflowID,
	Name:         "GPU roofline",
	Description:  "Titan RTX datasheet roofline (Table II): peak FLOPs vs memory bandwidth",
	Phases:       []sim.Phase{sim.Inference, sim.Training},
	Configurable: false,
	Aliases:      []string{"titan-rtx", "roofline"},
}

func (gpuDataflow) Capabilities() dataflow.Capabilities { return gpuCaps }

// DefaultConfig carries only the display name — the roofline has no
// crossbar geometry, and New ignores its argument entirely.
func (gpuDataflow) DefaultConfig() arch.Config {
	return arch.Config{Name: TitanRTX().Name}
}

func (gpuDataflow) New(arch.Config) (sim.Simulator, error) {
	return sim.Wrap(New(TitanRTX()), DataflowID), nil
}

func (gpuDataflow) Area(arch.Config) float64 { return TitanRTX().AreaMM2 }

func (gpuDataflow) Mappings(arch.Config, *nn.Network) []dataflow.Mapping {
	return []dataflow.Mapping{{}}
}

func (gpuDataflow) Apply(base arch.Config, _ dataflow.Mapping) arch.Config {
	return base
}
