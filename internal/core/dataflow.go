package core

import (
	"github.com/inca-arch/inca/internal/analytic"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the input-stationary backend.
const DataflowID = "is"

func init() {
	dataflow.Register(&dataflow.Backend{
		Caps: dataflow.Capabilities{
			ID:           DataflowID,
			Name:         "Input-stationary",
			Description:  "INCA 3D-stacked arrays: activations resident, weights stream (the paper's contribution)",
			Phases:       []sim.Phase{sim.Inference, sim.Training},
			Configurable: true,
			Aliases:      []string{"inca", "input-stationary"},
		},
		Default: arch.INCA(),
		Machine: func(cfg arch.Config) sim.Machine { return New(cfg) },
		Points:  isPoints,
		Fits:    isFits,
	})
}

// Mapping space: square subarray planes of growing size crossed with
// stacking depths. The legal points are bounded by two capacities:
// every conv window must fit one plane (crossbar constraint), and no
// layer's array demand may multiplex more than analytic.MaxMultiplex
// rounds over the chip.
var (
	isArraySizes = []int{8, 16, 32, 64}
	isPlaneDepth = []int{16, 32, 64, 128}
)

// isPoints lists the plane shapes whose subarrays hold net's largest
// conv window, crossed with every stacking depth.
func isPoints(_ arch.Config, net *nn.Network) []dataflow.Mapping {
	maxWindow := 1
	for _, l := range net.Layers {
		if l.IsCompute() && l.KH*l.KW > maxWindow {
			maxWindow = l.KH * l.KW
		}
	}
	var out []dataflow.Mapping
	for _, s := range isArraySizes {
		if s*s < maxWindow {
			continue
		}
		for _, p := range isPlaneDepth {
			out = append(out, dataflow.Mapping{Rows: s, Cols: s, Planes: p, LoopOrder: "window-outer"})
		}
	}
	return out
}

// isFits reports whether every compute layer of net stays within the
// multiplex bound on cfg.
func isFits(cfg arch.Config, net *nn.Network) bool {
	m := New(cfg)
	for i := range net.Layers {
		if l := &net.Layers[i]; l.IsCompute() && m.Multiplex(m.Map(l).TotalArrays) > analytic.MaxMultiplex {
			return false
		}
	}
	return true
}
