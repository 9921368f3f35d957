// Package baseline implements the paper's comparison architecture: a 2D
// weight-stationary RRAM accelerator modeled after ISAAC [42] for the
// pipelined feedforward phase and PipeLayer [48] for training.
//
// Weights are unrolled (GEMM-style) onto 128×128 1T1R crossbars, inputs
// stream bit-serially from buffers, every output is redirected to the
// buffer for the next layer, and training provisions separate transposed-
// weight crossbars plus activation round-trips through the memory
// hierarchy — exactly the four WS limitations the paper analyzes in §III.A.
package baseline

import (
	"github.com/inca-arch/inca/internal/analog"
	"github.com/inca-arch/inca/internal/analytic"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// Machine is a configured WS baseline accelerator.
type Machine struct{ analytic.Machine }

// New builds a machine from a configuration (normally arch.Baseline()).
func New(cfg arch.Config) *Machine { return &Machine{analytic.New("baseline", cfg)} }

// geometry captures how one layer maps onto the unrolled crossbars.
type geometry struct {
	positions   int64 // output positions computed (OH×OW, 1 for FC)
	rows        int64 // unrolled matrix rows = window elements
	cols        int64 // weight columns = OutC × WeightBits (1-bit cells)
	rowBlocks   int64
	colBlocks   int64
	crossbars   int64
	usefulCells int64 // cells holding real weights
	windowElems int64 // input elements fetched per position
}

func (m *Machine) layerGeometry(l *nn.Layer) geometry {
	var g geometry
	wb := int64(m.Cfg.WeightBits / m.Cfg.CellBits)
	switch l.Kind {
	case nn.Conv:
		g.positions = int64(l.OutH) * int64(l.OutW)
		g.rows = int64(l.KH) * int64(l.KW) * int64(l.InC)
		g.cols = int64(l.OutC) * wb
		g.windowElems = g.rows
		g.usefulCells = g.rows * g.cols
	case nn.Depthwise:
		// Block-diagonal mapping: the unrolled input vector carries all
		// channels, but each output column accumulates only its own
		// channel's K×K window — "nine of 128 cells in a column" (§V.B.4).
		g.positions = int64(l.OutH) * int64(l.OutW)
		g.rows = int64(l.KH) * int64(l.KW) * int64(l.InC)
		g.cols = int64(l.OutC) * wb
		g.windowElems = g.rows
		g.usefulCells = int64(l.KH) * int64(l.KW) * g.cols // diagonal blocks only
	case nn.FC:
		g.positions = 1
		g.rows = int64(l.InC)
		g.cols = int64(l.OutC) * wb
		g.windowElems = g.rows
		g.usefulCells = g.rows * g.cols
	default:
		return g
	}
	sr := int64(m.Cfg.SubarrayRows)
	sc := int64(m.Cfg.SubarrayCols)
	g.rowBlocks = (g.rows + sr - 1) / sr
	g.colBlocks = (g.cols + sc - 1) / sc
	g.crossbars = g.rowBlocks * g.colBlocks
	return g
}

// pass charges one compute pass over a layer-shaped workload for a single
// image into the zeroed r: g describes the mapping, inputBytes/outputBytes
// the streamed working sets.
func (m *Machine) pass(r *metrics.Result, g *geometry, inputBytes, outputBytes int64) {
	if g.positions == 0 {
		return
	}
	actBits := int64(m.Cfg.ActivationBits)
	cellsPerXbar := int64(m.Cfg.SubarrayRows) * int64(m.Cfg.SubarrayCols)
	dev := &m.Cfg.Device

	// --- Array events, per position per input-bit cycle ---
	// Bit-serial inputs through 1-bit DACs: a row whose input bit is 0
	// drives no voltage that cycle, so on average half the rows are active
	// (rowActivity); active cells dissipate the on/off average since the
	// stored weight bits are equally likely either state.
	const rowActivity = 0.5
	usefulReads := g.usefulCells
	offReads := g.crossbars*cellsPerXbar - g.usefulCells
	adcPerCycle := g.crossbars * int64(m.Cfg.SubarrayCols) // every column scanned
	dacPerCycle := g.rows * g.colBlocks                    // rows driven per column block
	cycles := g.positions * actBits

	r.Counts.RRAMReads = usefulReads * cycles
	r.Counts.ADCConversions = adcPerCycle * cycles
	r.Counts.DACConversions = dacPerCycle * cycles
	// Merge row-block partials and shift-accumulate the bit planes.
	adds := (analog.TreeAdds(g.rowBlocks) + actBits) * g.cols * g.positions
	r.Counts.DigitalOps = adds

	r.Energy.Add(metrics.RRAMArray,
		float64(usefulReads*cycles)*rowActivity*dev.ReadEnergyAvg()+
			float64(offReads*cycles)*rowActivity*dev.ReadEnergyOff())
	r.Energy.Add(metrics.ADC, m.ADC.ConversionEnergy(r.Counts.ADCConversions))
	r.Energy.Add(metrics.DAC, float64(r.Counts.DACConversions)*m.DAC.EnergyPerConv)
	r.Energy.Add(metrics.Digital, float64(adds)*m.Dig.AddEnergy)

	// Interconnect: per column, the row-block partials reduce through the
	// macro/tile H-tree, and each input row value broadcasts to every
	// column block it feeds.
	reduceJ, _ := m.Tree.ReduceCost(g.rowBlocks)
	bcastJ, _ := m.Tree.BroadcastCost(g.colBlocks)
	r.Energy.Add(metrics.Digital,
		reduceJ*float64(g.cols*cycles)+
			bcastJ*float64(g.rows*cycles)*rowActivity)

	// --- Memory traffic ---
	// Fetch: the input window is re-fetched for every output position
	// (Eq. 5 × positions); residency is the fraction of the input map that
	// fits in the 64 KB buffer.
	fetchBits := g.windowElems * actBits * g.positions
	resIn := m.Hier.ResidentFraction(inputBytes)
	memLat := m.Traffic(r, fetchBits, resIn, false)
	r.Counts.BufferAccesses += m.Cfg.Buffer.Beats(fetchBits)
	r.Counts.DRAMAccesses += int64(float64(fetchBits/8) * (1 - resIn))

	// Save: every output goes back through the buffer (Eq. 6, the ISAAC
	// pipelining requirement).
	// One actBits-wide value per output channel per position.
	outChannels := g.cols / int64(m.Cfg.WeightBits/m.Cfg.CellBits)
	saveBits := g.positions * outChannels * actBits
	resOut := m.Hier.ResidentFraction(outputBytes)
	memLat += m.Traffic(r, saveBits, resOut, true)
	r.Counts.BufferAccesses += m.Cfg.Buffer.Beats(saveBits)
	r.Counts.DRAMAccesses += int64(float64(saveBits/8) * (1 - resOut))

	// --- Latency ---
	// Per input-bit cycle the shared per-crossbar ADC scans all columns
	// serially; crossbars operate in parallel.
	cycleTime := dev.ReadPulse
	if t := float64(m.Cfg.SubarrayCols) * m.ADC.ConvLatency; t > cycleTime {
		cycleTime = t
	}
	computeTime := float64(cycles) * cycleTime
	if memLat > computeTime {
		r.Latency = memLat
	} else {
		r.Latency = computeTime
	}
}

// backwardLayer models the error-propagation convolution δ_{l+1} * W^T
// (Eq. 3) into the zeroed r: a per-image pass with input/output roles
// swapped, running on the transposed-weight crossbars.
func (m *Machine) backwardLayer(r *metrics.Result, l *nn.Layer) {
	t := *l
	t.InC, t.OutC = l.OutC, l.InC
	t.InH, t.InW, t.OutH, t.OutW = l.OutH, l.OutW, l.InH, l.InW
	g := m.layerGeometry(&t)
	m.pass(r, &g, t.InputElems(), t.OutputElems())
}

// gradientLayer models the weight-gradient convolution δ * x (Eq. 4)
// into the zeroed r: per image, the same MACs as the forward pass over
// l's geometry g, plus streaming the stored activations back through the
// hierarchy.
func (m *Machine) gradientLayer(r *metrics.Result, l *nn.Layer, g *geometry) {
	m.pass(r, g, l.InputElems(), 0)
	// Re-read the saved activations of this layer (they were written out
	// during the forward pass of the batch).
	bits := l.InputElems() * int64(m.Cfg.ActivationBits)
	res := m.Hier.ResidentFraction(l.InputElems())
	r.Latency += m.Traffic(r, bits, res, false)
}

// programWeights charges the one-time cost of writing a network's
// useful (unrolled) weight cells into the crossbars into the zeroed r;
// transposed doubles it for training (Limitation 2).
func (m *Machine) programWeights(r *metrics.Result, cells int64, transposed bool) {
	if transposed {
		cells *= 2
	}
	r.Counts.RRAMWrites = cells
	r.Energy.Add(metrics.RRAMArray, float64(cells)*m.Cfg.Device.WriteEnergy())
	// Writes proceed row-parallel across crossbars; charge one pulse per
	// crossbar row set.
	r.Latency = float64(cells/int64(m.Cfg.SubarrayCols)+1) * m.Cfg.Device.WritePulse / float64(m.Cfg.Subarrays())
	// The weight data itself travels DRAM -> buffer -> arrays; this DRAM
	// traffic is what makes DRAM the largest slice of the WS breakdown in
	// Fig. 6 even at CIFAR scale.
	weightBits := cells / int64(m.Cfg.WeightBits/m.Cfg.CellBits) * int64(m.Cfg.WeightBits)
	r.Latency += m.Traffic(r, weightBits, 0, false)
	r.Counts.DRAMAccesses += weightBits / 8
}

// utilization returns useful/allocated cells for a layer's geometry.
func (m *Machine) utilization(g *geometry) float64 {
	if g.crossbars == 0 {
		return 0
	}
	alloc := g.crossbars * int64(m.Cfg.SubarrayRows) * int64(m.Cfg.SubarrayCols)
	return float64(g.usefulCells) / float64(alloc)
}

// Simulate executes one batch of the network in the given phase.
func (m *Machine) Simulate(net *nn.Network, phase sim.Phase) *sim.Report {
	b := int64(m.Cfg.BatchSize)

	// cells counts the useful weight cells programmed, and in training
	// rewritten by the update.
	var cells int64
	rep, sum, max := m.Walk(net, phase, metrics.Result{}, func(row *sim.LayerResult) {
		l := &row.Layer
		g := m.layerGeometry(l)
		cells += g.usefulCells
		row.Utilization = m.utilization(&g)
		row.AllocatedCells = g.crossbars * int64(m.Cfg.SubarrayRows) * int64(m.Cfg.SubarrayCols)
		layer := &row.Result
		m.pass(layer, &g, l.InputElems(), l.OutputElems())
		layer.Scale(float64(b)) // every image repeats the work

		if phase == sim.Training {
			// Activations must round-trip to memory for the backward pass;
			// the batch working set almost never fits on chip.
			actBits := l.InputElems() * int64(m.Cfg.ActivationBits) * b
			res := m.Hier.ResidentFraction(l.InputElems() * b)
			layer.Latency += m.Traffic(layer, actBits, res, true)

			var step metrics.Result
			m.backwardLayer(&step, l)
			step.Scale(float64(b))
			layer.Add(&step)
			step = metrics.Result{}
			m.gradientLayer(&step, l, &g)
			step.Scale(float64(b))
			layer.Add(&step)
		}
	})
	total := &rep.Total

	// Latency composition. Inference pipelines layer-wise (ISAAC): one
	// image flows through all layers, subsequent images follow the
	// bottleneck stage. Training cannot pipeline that way — the backward
	// sweep depends on the whole forward pass and the weight update closes
	// the loop, so "the WS baseline needs repeated operations for each
	// image in the same batch" (§V.B.4) and images serialize.
	if phase == sim.Training {
		total.Latency = float64(b) * sum
	} else {
		total.Latency = sum + float64(b-1)*max
	}

	var prog metrics.Result
	m.programWeights(&prog, cells, phase == sim.Training)
	total.Add(&prog)

	if phase == sim.Training {
		// Weight update: rewrite original + transposed weight cells once
		// per batch.
		var upd metrics.Result
		upd.Counts.RRAMWrites = 2 * cells
		upd.Energy.Add(metrics.RRAMArray, float64(2*cells)*m.Cfg.Device.WriteEnergy())
		upd.Latency = float64(cells/int64(m.Cfg.SubarrayCols)+1) * m.Cfg.Device.WritePulse / float64(m.Cfg.Subarrays())
		total.Add(&upd)
	}
	return rep
}
