package baseline

import (
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the weight-stationary backend.
const DataflowID = "ws"

func init() {
	dataflow.Register(&dataflow.Backend{
		Caps: dataflow.Capabilities{
			ID:           DataflowID,
			Name:         "Weight-stationary",
			Description:  "ISAAC/PipeLayer-style 2D crossbars: weights resident, inputs stream bit-serially",
			Phases:       []sim.Phase{sim.Inference, sim.Training},
			Configurable: true,
			Aliases:      []string{"baseline", "weight-stationary"},
		},
		Default: arch.Baseline(),
		Machine: func(cfg arch.Config) sim.Machine { return New(cfg) },
		Points:  wsPoints,
		Fits:    wsFits,
	})
}

// Mapping space: square crossbar sizes. Larger crossbars amortize
// periphery but scan more columns per shared ADC; the legal points are
// bounded by the input buffer — one unrolled window per output position
// must fit the 64 KB stream buffer (crossbar rows × activation bits) —
// and by total crossbar demand staying within a multiplex bound of the
// chip's array budget.
const maxWSMultiplex = 64

var wsArraySizes = []int{32, 64, 128, 256}

// wsPoints lists every square crossbar size.
func wsPoints(arch.Config, *nn.Network) []dataflow.Mapping {
	out := make([]dataflow.Mapping, len(wsArraySizes))
	for i, s := range wsArraySizes {
		out[i] = dataflow.Mapping{Rows: s, Cols: s, LoopOrder: "weight-resident"}
	}
	return out
}

// wsFits checks the buffer- and crossbar-capacity constraints of cfg
// against net's worst layer.
func wsFits(cfg arch.Config, net *nn.Network) bool {
	m := New(cfg)
	var crossbars int64
	for i := range net.Layers {
		if !net.Layers[i].IsCompute() {
			continue
		}
		g := m.layerGeometry(&net.Layers[i])
		// One streamed window must fit the buffer alongside its output.
		windowBytes := g.windowElems * int64(cfg.ActivationBits) / 8
		if windowBytes > int64(cfg.Buffer.CapacityBytes) {
			return false
		}
		crossbars += g.crossbars
	}
	return crossbars <= int64(cfg.Subarrays())*maxWSMultiplex
}
