package outstat

import (
	"fmt"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the output-stationary backend.
const DataflowID = "os"

func init() { dataflow.Register(osDataflow{}) }

// osDataflow adapts this package to the dataflow.Dataflow interface.
type osDataflow struct{}

func (osDataflow) ID() string { return DataflowID }

// osCaps is shared by every Capabilities call, so resolving this backend
// allocates nothing; callers must not modify its slices.
var osCaps = dataflow.Capabilities{
	ID:           DataflowID,
	Name:         "Output-stationary",
	Description:  "MAC-DO-style in-array accumulators: outputs resident, inputs and weights both stream (inference only)",
	Phases:       []sim.Phase{sim.Inference},
	Configurable: true,
	Aliases:      []string{"outstat", "output-stationary", "mac-do"},
}

func (osDataflow) Capabilities() dataflow.Capabilities { return osCaps }

func (osDataflow) DefaultConfig() arch.Config { return arch.OutStationary() }

func (osDataflow) New(cfg arch.Config) (sim.Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return dataflow.GuardPhases(sim.Wrap(New(cfg), DataflowID), DataflowID, sim.Inference), nil
}

func (osDataflow) Area(cfg arch.Config) float64 { return cfg.Area().Total() }

// Mapping space: iso-capacity aspect reshapes of the accumulator
// crossbar. Rows bound the output-position tile and columns the
// output-channel tile, so the aspect is a loop-order choice — tall
// tiles keep more positions resident (weights refetched less, the
// position loop effectively outer), wide tiles keep more channels
// resident (inputs refetched less). Legal points keep the cell count of
// the base array and stay within the multiplex bound.
const maxOSMultiplex = 64

var osAspects = [][2]int{{32, 512}, {64, 256}, {128, 128}, {256, 64}, {512, 32}}

func (d osDataflow) Mappings(base arch.Config, net *nn.Network) []dataflow.Mapping {
	out := []dataflow.Mapping{{}}
	if net == nil {
		return out
	}
	cells := base.SubarrayRows * base.SubarrayCols
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
		m := dataflow.Mapping{Rows: a[0], Cols: a[1], LoopOrder: order}
		cfg := d.Apply(base, m)
		if cfg == base {
			continue
		}
		if cfg.Validate() != nil {
			continue
		}
		if osWorstMultiplex(cfg, net) > maxOSMultiplex {
			continue
		}
		out = append(out, m)
	}
	return out
}

// osWorstMultiplex returns the worst per-layer time-multiplex factor.
func osWorstMultiplex(cfg arch.Config, net *nn.Network) int64 {
	m := New(cfg)
	worst := int64(1)
	for _, l := range net.Layers {
		if !l.IsCompute() {
			continue
		}
		g := m.layerGeometry(l)
		mux := (g.crossbars + int64(cfg.Subarrays()) - 1) / int64(cfg.Subarrays())
		if mux > worst {
			worst = mux
		}
	}
	return worst
}

func (osDataflow) Apply(base arch.Config, m dataflow.Mapping) arch.Config {
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
