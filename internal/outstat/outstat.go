// Package outstat implements the third dataflow peer: an
// output-stationary 2D accelerator in the style of MAC-DO (see
// PAPERS.md). Each output element owns an in-array accumulator; partial
// products accumulate in place over the whole reduction dimension while
// BOTH operands stream past — inputs along rows, weights along columns
// — and every output is converted exactly once at the end of its
// accumulation. That inverts the WS cost structure: the per-cycle
// full-column ADC scans of ISAAC disappear (one conversion per output
// element instead of one per column per input-bit cycle), but neither
// operand is resident, so the memory hierarchy pays operand refetches
// per crossbar block.
//
// The output matrix of a layer — P output positions × N output
// channels — tiles onto crossbars holding SubarrayRows positions by
// SubarrayCols/weight-bits channels each. The tile aspect is the
// mapping knob: weights are refetched once per position block and
// inputs once per channel block, so tall tiles favor weight reuse and
// wide tiles favor input reuse. The reduction dimension K (kernel ×
// input channels) is purely temporal.
//
// Accumulating analog partial sums has no gradient path, so the
// backend is inference-only; the dataflow registry guards the training
// phase with dataflow.ErrUnsupportedPhase.
package outstat

import (
	"github.com/inca-arch/inca/internal/analytic"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// Machine is a configured output-stationary accelerator.
type Machine struct{ analytic.Machine }

// New builds a machine from a configuration (normally
// arch.OutStationary()).
func New(cfg arch.Config) *Machine { return &Machine{analytic.New("outstat", cfg)} }

// geometry captures how one layer's output matrix tiles onto the
// accumulator crossbars.
type geometry struct {
	positions int64 // P: output positions (OH×OW, 1 for FC)
	channels  int64 // N: output channels
	depth     int64 // K: accumulation length per output element
	posBlocks int64 // output-position tiles (rows)
	chBlocks  int64 // output-channel tiles (columns)
	crossbars int64
	colsPerCh int64 // accumulator cells per output element (weight bits)
}

func (m *Machine) layerGeometry(l *nn.Layer) geometry {
	var g geometry
	g.colsPerCh = int64(m.Cfg.WeightBits / m.Cfg.CellBits)
	switch l.Kind {
	case nn.Conv:
		g.positions = int64(l.OutH) * int64(l.OutW)
		g.channels = int64(l.OutC)
		g.depth = int64(l.KH) * int64(l.KW) * int64(l.InC)
	case nn.Depthwise:
		// No cross-channel accumulation: each output channel reduces only
		// its own K×K window.
		g.positions = int64(l.OutH) * int64(l.OutW)
		g.channels = int64(l.OutC)
		g.depth = int64(l.KH) * int64(l.KW)
	case nn.FC:
		g.positions = 1
		g.channels = int64(l.OutC)
		g.depth = int64(l.InC)
	default:
		return g
	}
	tp := int64(m.Cfg.SubarrayRows)
	tn := int64(m.Cfg.SubarrayCols) / g.colsPerCh
	if tn < 1 {
		tn = 1
	}
	g.posBlocks = (g.positions + tp - 1) / tp
	g.chBlocks = (g.channels + tn - 1) / tn
	g.crossbars = g.posBlocks * g.chBlocks
	return g
}

// pass charges one inference pass over a layer for a single image into
// the zeroed r.
func (m *Machine) pass(r *metrics.Result, g *geometry, inputBytes, outputBytes int64) {
	if g.positions == 0 || g.depth == 0 {
		return
	}
	actBits := int64(m.Cfg.ActivationBits)
	wBits := int64(m.Cfg.WeightBits)
	dev := &m.Cfg.Device

	// --- Array events, per image ---
	// Each output element accumulates over K steps; a step drives wb
	// accumulator cells for actBits input-bit cycles. Half the driven
	// cycles carry a 1 bit on average (bit-serial operands).
	const activity = 0.5
	outputs := g.positions * g.channels
	macEvents := outputs * g.depth * g.colsPerCh * actBits
	r.Counts.RRAMReads = macEvents
	// One conversion per output element — the OS amortization that
	// removes WS's per-cycle column scans.
	r.Counts.ADCConversions = outputs * g.colsPerCh
	// Operand delivery: inputs stream along rows (one value feeds every
	// channel column of its block), weights along columns (one value
	// feeds every position row of its block); both are refetched once
	// per block on the other axis, bit-serially through 1-bit drivers.
	inputDrives := g.depth * g.positions * g.chBlocks * actBits
	weightDrives := g.depth * g.channels * g.posBlocks * wBits
	r.Counts.DACConversions = inputDrives + weightDrives
	// Final shift-accumulate of the converted bit-planes per output.
	adds := outputs * (g.colsPerCh + actBits)
	r.Counts.DigitalOps = adds
	// One settle write per finished accumulator.
	r.Counts.RRAMWrites = outputs * g.colsPerCh

	r.Energy.Add(metrics.RRAMArray, float64(macEvents)*activity*dev.ReadEnergyAvg())
	r.Energy.Add(metrics.ADC, m.ADC.ConversionEnergy(r.Counts.ADCConversions))
	r.Energy.Add(metrics.DAC, float64(r.Counts.DACConversions)*activity*m.DAC.EnergyPerConv)
	r.Energy.Add(metrics.Digital, float64(adds)*m.Dig.AddEnergy)
	r.Energy.Add(metrics.RRAMArray, float64(r.Counts.RRAMWrites)*dev.WriteEnergy())

	// Interconnect: streamed operands broadcast across the blocks that
	// share them through the macro/tile H-tree.
	bcastIn, _ := m.Tree.BroadcastCost(g.chBlocks)
	bcastW, _ := m.Tree.BroadcastCost(g.posBlocks)
	r.Energy.Add(metrics.Digital,
		bcastIn*float64(g.depth*g.positions*actBits)*activity+
			bcastW*float64(g.depth*g.channels*wBits)*activity)

	// --- Memory traffic ---
	// Inputs: the layer's input map streams once per channel block.
	inputFetchBits := g.depth * g.positions * actBits * g.chBlocks
	resIn := m.Hier.ResidentFraction(inputBytes)
	memLat := m.Traffic(r, inputFetchBits, resIn, false)
	r.Counts.BufferAccesses += m.Cfg.Buffer.Beats(inputFetchBits)
	r.Counts.DRAMAccesses += int64(float64(inputFetchBits/8) * (1 - resIn))

	// Weights: the kernel tensor streams once per position block.
	weightBytes := g.depth * g.channels * wBits / 8
	weightFetchBits := g.depth * g.channels * wBits * g.posBlocks
	resW := m.Hier.ResidentFraction(weightBytes)
	memLat += m.Traffic(r, weightFetchBits, resW, false)
	r.Counts.BufferAccesses += m.Cfg.Buffer.Beats(weightFetchBits)
	r.Counts.DRAMAccesses += int64(float64(weightFetchBits/8) * (1 - resW))

	// Outputs: each element saves exactly once (the OS win over WS's
	// per-position output redirection).
	saveBits := outputs * actBits
	resOut := m.Hier.ResidentFraction(outputBytes)
	memLat += m.Traffic(r, saveBits, resOut, true)
	r.Counts.BufferAccesses += m.Cfg.Buffer.Beats(saveBits)
	r.Counts.DRAMAccesses += int64(float64(saveBits/8) * (1 - resOut))

	// --- Latency ---
	// Crossbars run in parallel; a layer needing more crossbars than the
	// chip has time-multiplexes. The serial dimension per crossbar is
	// the K accumulation steps × input-bit cycles; conversions drain
	// through the shared ADCs once per output.
	computeTime := float64(g.depth*actBits*m.Multiplex(g.crossbars)) * dev.ReadPulse
	adcTime := float64(r.Counts.ADCConversions) * m.ADC.ConvLatency / float64(m.Cfg.ADCCount())
	if adcTime > computeTime {
		computeTime = adcTime
	}
	if memLat > computeTime {
		r.Latency = memLat
	} else {
		r.Latency = computeTime
	}
}

// utilization returns in-use accumulator cells over allocated cells for
// a layer's geometry.
func (m *Machine) utilization(g *geometry) float64 {
	if g.crossbars == 0 {
		return 0
	}
	useful := g.positions * g.channels * g.colsPerCh
	alloc := g.crossbars * int64(m.Cfg.SubarrayRows) * int64(m.Cfg.SubarrayCols)
	return float64(useful) / float64(alloc)
}

// Simulate executes one inference batch. Training is structurally
// unsupported (analog accumulators have no gradient path); the dataflow
// adapter rejects it before reaching the machine, and direct callers
// panic like the other legacy machines do on inputs they cannot run.
func (m *Machine) Simulate(net *nn.Network, phase sim.Phase) *sim.Report {
	if phase != sim.Inference {
		panic("outstat: output-stationary machine supports inference only")
	}
	b := int64(m.Cfg.BatchSize)
	rep, sum, max := m.Walk(net, phase, metrics.Result{}, func(row *sim.LayerResult) {
		l := &row.Layer
		g := m.layerGeometry(l)
		row.Utilization = m.utilization(&g)
		row.AllocatedCells = g.crossbars * int64(m.Cfg.SubarrayRows) * int64(m.Cfg.SubarrayCols)
		m.pass(&row.Result, &g, l.InputElems(), l.OutputElems())
		row.Result.Scale(float64(b))
	})

	// Inference pipelines layer-wise like the WS baseline: one image
	// flows through all layers, subsequent images follow the bottleneck
	// stage.
	rep.Total.Latency = sum + float64(b-1)*max
	return rep
}
