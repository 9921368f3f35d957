package core

import (
	"fmt"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the input-stationary backend.
const DataflowID = "is"

func init() { dataflow.Register(isDataflow{}) }

// isDataflow adapts this package to the dataflow.Dataflow interface.
type isDataflow struct{}

func (isDataflow) ID() string { return DataflowID }

// isCaps is shared by every Capabilities call, so resolving this backend
// allocates nothing; callers must not modify its slices.
var isCaps = dataflow.Capabilities{
	ID:           DataflowID,
	Name:         "Input-stationary",
	Description:  "INCA 3D-stacked arrays: activations resident, weights stream (the paper's contribution)",
	Phases:       []sim.Phase{sim.Inference, sim.Training},
	Configurable: true,
	Aliases:      []string{"inca", "input-stationary"},
}

func (isDataflow) Capabilities() dataflow.Capabilities { return isCaps }

func (isDataflow) DefaultConfig() arch.Config { return arch.INCA() }

func (isDataflow) New(cfg arch.Config) (sim.Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return sim.Wrap(New(cfg), DataflowID), nil
}

func (isDataflow) Area(cfg arch.Config) float64 { return cfg.Area().Total() }

// Mapping space: square subarray planes of growing size crossed with
// stacking depths. The legal points are bounded by two capacities:
// every conv window must fit one plane (crossbar constraint), and the
// worst layer's array demand must not multiplex more than maxMultiplex
// rounds over the chip (a mapping that serializes further is useless).
const maxMultiplex = 64

var (
	isArraySizes = []int{8, 16, 32, 64}
	isPlaneDepth = []int{16, 32, 64, 128}
)

func (d isDataflow) Mappings(base arch.Config, net *nn.Network) []dataflow.Mapping {
	out := []dataflow.Mapping{{}} // the base point is always legal
	if net == nil {
		return out
	}
	maxWindow := 1
	for _, l := range net.Layers {
		if l.IsCompute() && l.KH*l.KW > maxWindow {
			maxWindow = l.KH * l.KW
		}
	}
	for _, s := range isArraySizes {
		if s*s < maxWindow {
			continue
		}
		for _, p := range isPlaneDepth {
			m := dataflow.Mapping{Rows: s, Cols: s, Planes: p, LoopOrder: "window-outer"}
			cfg := d.Apply(base, m)
			if cfg == base {
				continue // identical to the base point already present
			}
			if cfg.Validate() != nil {
				continue
			}
			if isWorstMultiplex(cfg, net) > maxMultiplex {
				continue
			}
			out = append(out, m)
		}
	}
	return out
}

// isWorstMultiplex returns the worst per-layer time-multiplex factor of
// net on cfg (1 = the whole layer fits the chip at once).
func isWorstMultiplex(cfg arch.Config, net *nn.Network) int64 {
	m := New(cfg)
	worst := int64(1)
	for _, l := range net.Layers {
		if !l.IsCompute() {
			continue
		}
		mp := m.Map(l)
		if mux := ceil64(mp.TotalArrays, int64(cfg.Subarrays())); mux > worst {
			worst = mux
		}
	}
	return worst
}

func (isDataflow) Apply(base arch.Config, m dataflow.Mapping) arch.Config {
	cfg := base
	if m.Rows > 0 {
		cfg.SubarrayRows = m.Rows
	}
	if m.Cols > 0 {
		cfg.SubarrayCols = m.Cols
	}
	if m.Planes > 0 {
		cfg.StackedPlanes = m.Planes
	}
	if !m.IsZero() && cfg != base {
		cfg.Name = fmt.Sprintf("%s[%s]", base.Name, m.Label())
	}
	return cfg
}
