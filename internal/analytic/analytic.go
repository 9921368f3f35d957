// Package analytic holds what the three analytical dataflow simulators
// share: the configured periphery (memory hierarchy, converters, digital
// units and interconnect), the one layer walk that turns a network into
// a report, the one charge for buffer/DRAM traffic, and the multiplex
// bound on a mapping. The input-stationary (core), weight-stationary
// (baseline) and output-stationary (outstat) machines each embed a
// Machine and supply only what differs between dataflows: the per-layer
// cost of a compute layer and how layer latencies compose into a total.
// A comparison across dataflows is then only as unfair as those two
// pieces, never the bookkeeping around them.
package analytic

import (
	"github.com/inca-arch/inca/internal/analog"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/mem"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/noc"
	"github.com/inca-arch/inca/internal/sim"
)

// MaxMultiplex bounds the mapping space of every analytical dataflow: a
// mapping whose array demand time-multiplexes more than this many rounds
// over the chip serializes so far that it is useless, so no backend
// lists it as fitting.
const MaxMultiplex = 64

// Machine is a configured analytical accelerator's shared periphery.
type Machine struct {
	Cfg  arch.Config
	Hier mem.Hierarchy
	ADC  analog.ADC
	DAC  analog.DAC
	Dig  analog.Digital
	Tree noc.HTree
}

// New builds the periphery of cfg. It panics with the message prefixed
// by pkg, the constructing backend's package name, when cfg is invalid.
func New(pkg string, cfg arch.Config) Machine {
	if err := cfg.Validate(); err != nil {
		panic(pkg + ": " + err.Error())
	}
	return Machine{
		Cfg:  cfg,
		Hier: mem.Hierarchy{Buf: cfg.Buffer, Dram: cfg.DRAM},
		ADC:  analog.NewADC(cfg.ADCBits),
		DAC:  analog.NewDAC(1),
		Dig:  analog.NewDigital(),
		Tree: noc.Standard(cfg.MacroSize, cfg.TileSize, cfg.Tiles),
	}
}

// Walk builds the report of one batch of net in phase. The total starts
// at start (a backend's network-level cost paid before the first layer,
// or zero). Non-compute layers are charged to the total through the
// shared post-processing units. For each compute layer Walk appends a
// row holding a copy of the layer, calls the backend's layer hook to
// fill the row's Utilization, AllocatedCells and Result, and adds the
// finished row to the total. The hook must not retain row.
//
// sum and max are the per-image layer latencies (row latency over the
// batch), summed in layer order, and their maximum: the inputs of a
// pipelined or serialized latency composition. A backend that composes
// its latency from the rows themselves ignores them.
func (m *Machine) Walk(net *nn.Network, phase sim.Phase, start metrics.Result, layer func(row *sim.LayerResult)) (rep *sim.Report, sum, max float64) {
	rep = &sim.Report{
		Arch:    m.Cfg.Name,
		Network: net.Name,
		Phase:   phase,
		Batch:   m.Cfg.BatchSize,
		Layers:  make([]sim.LayerResult, 0, net.ComputeCount()),
		Total:   start,
	}
	b := float64(m.Cfg.BatchSize)
	for i := range net.Layers {
		l := &net.Layers[i]
		if !l.IsCompute() {
			m.postProcess(&rep.Total, l)
			continue
		}
		rep.Layers = append(rep.Layers, sim.LayerResult{Layer: *l})
		row := &rep.Layers[len(rep.Layers)-1]
		layer(row)
		rep.Total.Add(&row.Result)
		t := row.Result.Latency / b
		sum += t
		if t > max {
			max = t
		}
	}
	return rep, sum, max
}

// postProcess charges the digital ReLU / pooling / residual-add units
// for a non-compute layer to r: one operation per element per image,
// with no added latency (the units are element-wise and pipeline behind
// the arrays, §IV.C inter-layer mapping).
func (m *Machine) postProcess(r *metrics.Result, l *nn.Layer) {
	var p metrics.Result
	var ops int64
	switch l.Kind {
	case nn.ReLU, nn.Add:
		ops = l.OutputElems()
	case nn.MaxPool, nn.AvgPool, nn.GlobalAvgPool:
		// One compare/accumulate per input element inside the windows.
		ops = l.InputElems()
	default:
		return
	}
	ops *= int64(m.Cfg.BatchSize)
	p.Counts.DigitalOps = ops
	p.Energy.Add(metrics.Digital, float64(ops)*m.Dig.AddEnergy)
	r.Add(&p)
}

// Traffic charges to r the buffer and DRAM energy of moving bits, of
// which the fraction res is buffer-resident and the rest spills to
// DRAM, and returns the transfer latency for the caller to compose.
// Access counts stay with the caller, which knows what the bits are.
func (m *Machine) Traffic(r *metrics.Result, bits int64, res float64, write bool) float64 {
	bufJ, dramJ, lat := m.Hier.TrafficCost(bits, res, write)
	r.Energy.Add(metrics.Buffer, bufJ)
	r.Energy.Add(metrics.DRAM, dramJ)
	return lat
}

// Multiplex returns how many rounds a demand of arrays time-multiplexes
// over the chip's arrays (1 = it fits at once; 0 for no demand).
func (m *Machine) Multiplex(arrays int64) int64 {
	n := int64(m.Cfg.Subarrays())
	return (arrays + n - 1) / n
}
