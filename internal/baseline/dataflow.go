package baseline

import (
	"fmt"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// DataflowID is the registry ID of the weight-stationary backend.
const DataflowID = "ws"

func init() { dataflow.Register(wsDataflow{}) }

// wsDataflow adapts this package to the dataflow.Dataflow interface.
type wsDataflow struct{}

func (wsDataflow) ID() string { return DataflowID }

// wsCaps is shared by every Capabilities call, so resolving this backend
// allocates nothing; callers must not modify its slices.
var wsCaps = dataflow.Capabilities{
	ID:           DataflowID,
	Name:         "Weight-stationary",
	Description:  "ISAAC/PipeLayer-style 2D crossbars: weights resident, inputs stream bit-serially",
	Phases:       []sim.Phase{sim.Inference, sim.Training},
	Configurable: true,
	Aliases:      []string{"baseline", "weight-stationary"},
}

func (wsDataflow) Capabilities() dataflow.Capabilities { return wsCaps }

func (wsDataflow) DefaultConfig() arch.Config { return arch.Baseline() }

func (wsDataflow) New(cfg arch.Config) (sim.Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return sim.Wrap(New(cfg), DataflowID), nil
}

func (wsDataflow) Area(cfg arch.Config) float64 { return cfg.Area().Total() }

// Mapping space: square crossbar sizes. Larger crossbars amortize
// periphery but scan more columns per shared ADC; the legal points are
// bounded by the input buffer — one unrolled window per output position
// must fit the 64 KB stream buffer (crossbar rows × activation bits) —
// and by total crossbar demand staying within a multiplex bound of the
// chip's array budget.
const (
	maxWSMultiplex = 64
)

var wsArraySizes = []int{32, 64, 128, 256}

func (d wsDataflow) Mappings(base arch.Config, net *nn.Network) []dataflow.Mapping {
	out := []dataflow.Mapping{{}}
	if net == nil {
		return out
	}
	for _, s := range wsArraySizes {
		m := dataflow.Mapping{Rows: s, Cols: s, LoopOrder: "weight-resident"}
		cfg := d.Apply(base, m)
		if cfg == base {
			continue
		}
		if cfg.Validate() != nil {
			continue
		}
		if !wsFits(cfg, net) {
			continue
		}
		out = append(out, m)
	}
	return out
}

// wsFits checks the buffer- and crossbar-capacity constraints of cfg
// against net's worst layer.
func wsFits(cfg arch.Config, net *nn.Network) bool {
	m := New(cfg)
	var crossbars int64
	for _, l := range net.Layers {
		if !l.IsCompute() {
			continue
		}
		g := m.layerGeometry(l)
		// One streamed window must fit the buffer alongside its output.
		windowBytes := g.windowElems * int64(cfg.ActivationBits) / 8
		if windowBytes > int64(cfg.Buffer.CapacityBytes) {
			return false
		}
		crossbars += g.crossbars
	}
	return crossbars <= int64(cfg.Subarrays())*maxWSMultiplex
}

func (wsDataflow) Apply(base arch.Config, m dataflow.Mapping) arch.Config {
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
