package gpu

import (
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the GPU roofline backend.
const DataflowID = "gpu"

// The roofline is a fixed backend: arch.Config does not shape the
// machine (the default carries only the display name), every override
// collapses to one sweep cache cell, and the mapping space is the
// single roofline point.
func init() {
	dev := TitanRTX()
	dataflow.Register(&dataflow.Backend{
		Caps: dataflow.Capabilities{
			ID:          DataflowID,
			Name:        "GPU roofline",
			Description: "Titan RTX datasheet roofline (Table II): peak FLOPs vs memory bandwidth",
			Phases:      []sim.Phase{sim.Inference, sim.Training},
			Aliases:     []string{"titan-rtx", "roofline"},
		},
		Default:      arch.Config{Name: dev.Name},
		Machine:      func(arch.Config) sim.Machine { return New(TitanRTX()) },
		FixedAreaMM2: dev.AreaMM2,
	})
}
