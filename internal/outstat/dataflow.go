package outstat

import (
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the output-stationary backend.
const DataflowID = "os"

// The in-array accumulators have no gradient path, so the backend
// declares inference only and the registry guards training off.
func init() {
	dataflow.Register(&dataflow.Backend{
		Caps: dataflow.Capabilities{
			ID:           DataflowID,
			Name:         "Output-stationary",
			Description:  "MAC-DO-style in-array accumulators: outputs resident, inputs and weights both stream (inference only)",
			Phases:       []sim.Phase{sim.Inference},
			Configurable: true,
			Aliases:      []string{"outstat", "output-stationary", "mac-do"},
		},
		Default: arch.OutStationary(),
		Machine: func(cfg arch.Config) sim.Machine { return New(cfg) },
		Points:  osPoints,
		Fits:    func(cfg arch.Config, net *nn.Network) bool { return osWorstMultiplex(cfg, net) <= maxOSMultiplex },
	})
}

// Mapping space: iso-capacity aspect reshapes of the accumulator
// crossbar. Rows bound the output-position tile and columns the
// output-channel tile, so the aspect is a loop-order choice — tall
// tiles keep more positions resident (weights refetched less, the
// position loop effectively outer), wide tiles keep more channels
// resident (inputs refetched less). Legal points keep the cell count of
// the base array and stay within the multiplex bound.
const maxOSMultiplex = 64

var osAspects = [][2]int{{32, 512}, {64, 256}, {128, 128}, {256, 64}, {512, 32}}

// osPoints lists the aspects with base's cell count, each named by the
// refetch it trades away.
func osPoints(base arch.Config, _ *nn.Network) []dataflow.Mapping {
	cells := base.SubarrayRows * base.SubarrayCols
	var out []dataflow.Mapping
	for _, a := range osAspects {
		if a[0]*a[1] != cells {
			continue
		}
		order := "balanced"
		switch {
		case a[0] > a[1]:
			order = "weight-reuse"
		case a[0] < a[1]:
			order = "input-reuse"
		}
		out = append(out, dataflow.Mapping{Rows: a[0], Cols: a[1], LoopOrder: order})
	}
	return out
}

// osWorstMultiplex returns the worst per-layer time-multiplex factor.
func osWorstMultiplex(cfg arch.Config, net *nn.Network) int64 {
	m := New(cfg)
	worst := int64(1)
	for i := range net.Layers {
		if !net.Layers[i].IsCompute() {
			continue
		}
		g := m.layerGeometry(&net.Layers[i])
		mux := (g.crossbars + int64(cfg.Subarrays()) - 1) / int64(cfg.Subarrays())
		if mux > worst {
			worst = mux
		}
	}
	return worst
}
