// Package core implements the paper's primary contribution: the INCA
// input-stationary crossbar accelerator simulator.
//
// Activations live in 2T1R direct-convolution planes organized as 3D
// horizontally-stacked arrays (one batch image per plane, shared weight
// pillars); weights stream bit-serially from the buffer/DRAM hierarchy.
// The mapper follows §IV.C: feature maps are partitioned onto 16×16
// subarrays (one RRAM per activation bit), the same window of different
// input channels lands in one macro whose adder tree accumulates across
// channels, halo positions are gathered by partial-sum adders, outputs
// propagate directly into the next layer's arrays, and — during training —
// computed errors overwrite the activation cells they replace.
package core

import (
	"github.com/inca-arch/inca/internal/analytic"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/place"
	"github.com/inca-arch/inca/internal/sim"
)

// Machine is a configured INCA accelerator.
type Machine struct{ analytic.Machine }

// New builds a machine from a configuration (normally arch.INCA()).
func New(cfg arch.Config) *Machine { return &Machine{analytic.New("core", cfg)} }

// Mapping captures how one layer's activations map onto the 3D arrays.
//
// Two layouts exist (§IV.C). *Spatial* mapping (regular and depthwise
// convolution): each channel's feature map is partitioned onto 16×16
// planes and one window is read per partition per cycle, with the macro
// adder tree accumulating across channels. *Folded* mapping (pointwise and
// FC): the accumulation dimension — the input channel vector — is folded
// into the 2D plane so a whole dot product is read in one shot, one plane
// group per output position.
type Mapping struct {
	Groups      int   // arrays accumulated per window (channels or fold groups)
	OutChannels int   // kernels streamed
	Windows     int64 // output positions (OH×OW, 1 for FC)
	WindowCells int64 // cells selected per window per group

	// Serialization structure for latency: each array processes
	// SerialWindows positions sequentially, and SerialOut output channels
	// must share the same arrays (1 for depthwise, whose per-channel
	// arrays take their own kernels concurrently). TotalArrays is the 3D
	// array demand; exceeding the chip forces time multiplexing.
	SerialWindows int64
	SerialOut     int64
	TotalArrays   int64

	HaloFraction float64
	WeightBytes  int64 // kernel data fetched per batch
	Utilization  float64
}

// Map computes the intra-layer mapping of §IV.C for a compute layer.
func (m *Machine) Map(l *nn.Layer) (mp Mapping) {
	s := m.Cfg.SubarrayRows // square subarrays
	cellsPerPlane := s * s
	switch {
	case l.Kind == nn.Conv && l.KH == 1 && l.KW == 1:
		// Pointwise: fold input channels onto the plane ("we fold the
		// dimension which requires accumulation to the 2D plane"). When a
		// channel vector is shorter than the plane, several output
		// positions pack into one plane (their reads then serialize);
		// positions on distinct planes proceed in parallel.
		groups := ceilInt(l.InC, cellsPerPlane)
		posPerPlane := 1
		if l.InC < cellsPerPlane {
			posPerPlane = cellsPerPlane / l.InC
		}
		mp.Groups = groups
		mp.OutChannels = l.OutC
		mp.Windows = int64(l.OutH) * int64(l.OutW)
		mp.WindowCells = int64(minInt(l.InC, cellsPerPlane))
		mp.SerialWindows = int64(minInt(posPerPlane, int(mp.Windows)))
		mp.SerialOut = int64(l.OutC)
		mp.TotalArrays = ceil64(mp.Windows, int64(posPerPlane)) * int64(groups) * int64(m.Cfg.ActPlanes())
		mp.Utilization = float64(int64(l.InC)*mp.Windows) /
			float64(mp.TotalArrays/int64(m.Cfg.ActPlanes())*int64(cellsPerPlane))
		mp.WeightBytes = l.WeightParams() * int64(m.Cfg.WeightBits) / 8
	case l.Kind == nn.Conv:
		partsH := ceilInt(l.InH, s)
		partsW := ceilInt(l.InW, s)
		parts := int64(partsH) * int64(partsW)
		mp.Groups = l.InC
		mp.OutChannels = l.OutC
		mp.Windows = int64(l.OutH) * int64(l.OutW)
		mp.WindowCells = int64(l.KH) * int64(l.KW)
		mp.SerialWindows = ceil64(mp.Windows, parts)
		mp.SerialOut = int64(l.OutC)
		mp.TotalArrays = parts * int64(l.InC) * int64(m.Cfg.ActPlanes())
		mp.Utilization = float64(l.InH*l.InW) / float64(partsH*partsW*cellsPerPlane)
		mp.HaloFraction = haloFraction(l.KH, s)
		mp.WeightBytes = l.WeightParams() * int64(m.Cfg.WeightBits) / 8
	case l.Kind == nn.Depthwise:
		partsH := ceilInt(l.InH, s)
		partsW := ceilInt(l.InW, s)
		parts := int64(partsH) * int64(partsW)
		mp.Groups = 1 // no accumulation across channels (Fig. 3b)
		mp.OutChannels = l.OutC
		mp.Windows = int64(l.OutH) * int64(l.OutW)
		mp.WindowCells = int64(l.KH) * int64(l.KW)
		mp.SerialWindows = ceil64(mp.Windows, parts)
		// Each output channel reads only its own channel's arrays, so the
		// channel loop runs concurrently across arrays.
		mp.SerialOut = 1
		mp.TotalArrays = parts * int64(l.InC) * int64(m.Cfg.ActPlanes())
		mp.Utilization = float64(l.InH*l.InW) / float64(partsH*partsW*cellsPerPlane)
		mp.HaloFraction = haloFraction(l.KH, s)
		mp.WeightBytes = l.WeightParams() * int64(m.Cfg.WeightBits) / 8
	case l.Kind == nn.FC:
		groups := ceilInt(l.InC, cellsPerPlane)
		mp.Groups = groups
		mp.OutChannels = l.OutC
		mp.Windows = 1
		mp.WindowCells = int64(minInt(l.InC, cellsPerPlane))
		mp.SerialWindows = 1
		mp.SerialOut = int64(l.OutC)
		mp.TotalArrays = int64(groups) * int64(m.Cfg.ActPlanes())
		mp.Utilization = float64(l.InC) / float64(groups*cellsPerPlane)
		mp.WeightBytes = l.WeightParams() * int64(m.Cfg.WeightBits) / 8
	}
	return mp
}

// haloFraction estimates the fraction of windows whose cells straddle a
// partition boundary and therefore need a cross-partition partial-sum
// gather (§IV.C "halo").
func haloFraction(k, s int) float64 {
	if k <= 1 {
		return 0
	}
	interior := float64(s-k+1) / float64(s)
	if interior < 0 {
		interior = 0
	}
	return 1 - interior*interior
}

// pass charges one batch-parallel compute pass of a mapped workload
// into the zeroed r. Planes hold the batch: reads and conversions scale
// with the batch, but the shared pillars mean the weight streaming (DAC
// events, fetch traffic, and latency) does not.
func (m *Machine) pass(r *metrics.Result, mp *Mapping) {
	if mp.Windows == 0 {
		return
	}
	b := int64(m.Cfg.BatchSize)
	actPlanes := int64(m.Cfg.ActPlanes())
	wBits := int64(m.Cfg.WeightBits)
	dev := &m.Cfg.Device

	// Per window, per output channel, per weight-bit cycle:
	//   reads: window cells × channels × activation bit-plane arrays × B
	//   DACs:  window cells × channels × bit-plane arrays (pillars shared
	//          across the B planes of a stack)
	//   ADC:   macro-aggregated conversions per plane.
	// Weight bits stream through 1-bit drivers, so on average half the
	// weight-bit cycles drive a pillar (pillarActivity); driven cells
	// dissipate the on/off average over the stored activation bits.
	const pillarActivity = 0.5
	arraysPerWindow := int64(mp.Groups) * actPlanes
	adcPerWindow := ceil64(arraysPerWindow, int64(m.Cfg.SubarraysPerADC)) * b
	readsPerWindow := mp.WindowCells * arraysPerWindow * b
	dacPerWindow := mp.WindowCells * arraysPerWindow

	events := mp.Windows * int64(mp.OutChannels) * wBits
	r.Counts.RRAMReads = readsPerWindow * events
	r.Counts.ADCConversions = adcPerWindow * events
	r.Counts.DACConversions = dacPerWindow * events
	// Adder tree across channels/partitions + shift-accumulate + halo
	// gathers.
	adds := adcPerWindow*events +
		int64(float64(mp.Windows)*mp.HaloFraction)*int64(mp.OutChannels)*b
	r.Counts.DigitalOps = adds

	// 2T1R gating keeps unselected cells off: no off-cell leakage charge —
	// one of the structural IS advantages.
	r.Energy.Add(metrics.RRAMArray, float64(r.Counts.RRAMReads)*pillarActivity*dev.ReadEnergyAvg())
	r.Energy.Add(metrics.ADC, m.ADC.ConversionEnergy(r.Counts.ADCConversions))
	r.Energy.Add(metrics.DAC, float64(r.Counts.DACConversions)*pillarActivity*m.DAC.EnergyPerConv)
	r.Energy.Add(metrics.Digital, float64(adds)*m.Dig.AddEnergy)

	// Interconnect: the per-plane converted partials reduce through the
	// macro/tile adder H-tree, and each streamed weight bit broadcasts to
	// the partition arrays sharing the kernel.
	reduceJ, _ := m.Tree.ReduceCost(ceil64(arraysPerWindow, int64(m.Cfg.SubarraysPerADC)))
	partitions := ceil64(mp.TotalArrays, int64(mp.Groups)*actPlanes)
	bcastJ, _ := m.Tree.BroadcastCost(partitions)
	// One broadcast per streamed kernel value per serialized cycle serves
	// every parallel partition array at once.
	bcastCycles := float64(mp.SerialWindows * mp.SerialOut * wBits)
	bcastValues := float64(mp.WindowCells) * float64(mp.Groups)
	r.Energy.Add(metrics.Digital,
		reduceJ*float64(events)*float64(b)+
			bcastJ*bcastCycles*bcastValues*pillarActivity)

	// Weight fetch: each kernel is fetched once per batch and reused for
	// every window and every plane (the IS key insight).
	fetchBits := mp.WeightBytes * 8
	res := m.Hier.ResidentFraction(mp.WeightBytes)
	memLat := m.Traffic(r, fetchBits, res, false)
	r.Counts.BufferAccesses = m.Cfg.Buffer.Beats(fetchBits)
	r.Counts.DRAMAccesses = int64(float64(fetchBits/8) * (1 - res))

	// Latency. Every partition array slides its own window concurrently
	// (the high-parallelism argument of §III.B), so the serial dimensions
	// are windows-per-partition × output channels × weight-bit cycles —
	// throttled by two shared resources:
	//   * array capacity: a layer needing more 3D arrays than exist is
	//     time-multiplexed, and
	//   * ADC throughput: macro-shared 4-bit converters drain at most
	//     ADCCount × readPulse/convLatency conversions per read cycle.
	serialCycles := mp.SerialWindows * mp.SerialOut * wBits * m.Multiplex(mp.TotalArrays)
	readBound := float64(serialCycles) * dev.ReadPulse

	adcBound := float64(r.Counts.ADCConversions) * m.ADC.ConvLatency / float64(m.Cfg.ADCCount())

	compute := readBound
	if adcBound > compute {
		compute = adcBound
	}
	if !m.Cfg.WriteReadOverlap {
		// Ablation: expose the RRAM write of each produced output batch
		// instead of hiding it behind the next reads (§V.B.2).
		compute += float64(mp.SerialWindows*mp.SerialOut) * dev.WritePulse
	}
	r.Latency = compute
	if memLat > r.Latency {
		r.Latency = memLat
	}
}

// writeActivations charges the propagation of a layer's outputs into the
// next layer's RRAM arrays (elems × bit planes × batch cell writes) to r;
// with WriteReadOverlap the pulses hide behind compute and add no
// latency.
func (m *Machine) writeActivations(r *metrics.Result, elems int64) {
	var w metrics.Result
	b := int64(m.Cfg.BatchSize)
	writes := elems * int64(m.Cfg.ActivationBits) * b
	w.Counts.RRAMWrites = writes
	w.Energy.Add(metrics.RRAMArray, float64(writes)*m.Cfg.Device.WriteEnergy())
	if !m.Cfg.WriteReadOverlap {
		// All arrays write in parallel; one pulse per output position.
		w.Latency = m.Cfg.Device.WritePulse
	}
	r.Add(&w)
}

// forwardLayer charges the batch forward cost of one compute layer,
// mapped as mp, into the zeroed r: the streamed-weight convolution plus
// the propagation of outputs into the next layer's arrays.
func (m *Machine) forwardLayer(r *metrics.Result, l *nn.Layer, mp *Mapping) {
	m.pass(r, mp)
	m.writeActivations(r, l.OutputElems())
}

// backwardLayer models Eq. 3 into the zeroed r: the transposed-weight
// convolution that turns δ_{l+1} into δ_l, with the computed errors
// overwriting the activation cells (no extra RRAM, §IV.C Backward) and
// the ReLU gradient applied by AND gates.
func (m *Machine) backwardLayer(r *metrics.Result, l *nn.Layer) {
	t := *l
	t.InC, t.OutC = l.OutC, l.InC
	t.InH, t.InW, t.OutH, t.OutW = l.OutH, l.OutW, l.InH, l.InW
	mp := m.Map(&t)
	m.pass(r, &mp)
	// Errors overwrite the layer's activation cells.
	m.writeActivations(r, l.InputElems())
	// AND-gate ReLU gradient.
	var relu metrics.Result
	relu.Counts.DigitalOps = l.InputElems() * int64(m.Cfg.BatchSize)
	relu.Energy.Add(metrics.Digital, float64(relu.Counts.DigitalOps)*m.Dig.AddEnergy)
	r.Add(&relu)
}

// updateLayer models Eq. 4 into the zeroed r: the δ*x convolution
// producing weight gradients (same MAC volume as the forward pass,
// batch-parallel on the resident activations) and the cheap weight
// write-back to conventional memory — the structural reason IS training
// needs no extra RRAM.
func (m *Machine) updateLayer(r *metrics.Result, l *nn.Layer, mp *Mapping) {
	m.pass(r, mp)
	bits := l.WeightParams() * int64(m.Cfg.WeightBits)
	res := m.Hier.ResidentFraction(bits / 8)
	r.Latency += m.Traffic(r, bits, res, true)
}

// Simulate executes one batch of the network in the given phase. The
// total latency is the input load plus every layer's latency in order:
// layers run one after another on the resident activations.
func (m *Machine) Simulate(net *nn.Network, phase sim.Phase) *sim.Report {
	// Load the input images from DRAM into the first layer's arrays.
	inputBytes := int64(net.InputC*net.InputH*net.InputW) * int64(m.Cfg.BatchSize)
	var load metrics.Result
	load.Energy.Add(metrics.DRAM, m.Cfg.DRAM.Energy(inputBytes))
	load.Latency = m.Cfg.DRAM.TransferTime(inputBytes, 0.5)
	m.writeActivations(&load, int64(net.InputC*net.InputH*net.InputW))

	// Batches wider than the 3D stack depth spill into multiple plane
	// passes: energy already scales with BatchSize, but the latency
	// advantage only covers StackedPlanes images at a time.
	passes := 1.0
	if m.Cfg.BatchSize > m.Cfg.StackedPlanes {
		passes = float64(ceilInt(m.Cfg.BatchSize, m.Cfg.StackedPlanes))
	}

	rep, _, _ := m.Walk(net, phase, load, func(row *sim.LayerResult) {
		l := &row.Layer
		mp := m.Map(l)
		row.Utilization = mp.Utilization
		row.AllocatedCells = mp.TotalArrays * int64(m.Cfg.SubarrayRows) * int64(m.Cfg.SubarrayCols)
		layer := &row.Result
		m.forwardLayer(layer, l, &mp)
		if phase == sim.Training {
			var step metrics.Result
			m.backwardLayer(&step, l)
			layer.Add(&step)
			step = metrics.Result{}
			m.updateLayer(&step, l, &mp)
			layer.Add(&step)
			// Transposed weights are fetched again from the ordinary
			// weight buffer ("the training process may double the accesses
			// in INCA", §V.B.1).
			res := m.Hier.ResidentFraction(mp.WeightBytes)
			layer.Latency += m.Traffic(layer, mp.WeightBytes*8, res, false)
		}
		layer.Latency *= passes
	})
	return rep
}

// Placement maps the network's compute layers sequentially onto the
// macro hierarchy (§IV.C inter-layer mapping: each layer starts from a
// new PIM macro), reporting fragmentation and the time-multiplex rounds a
// network needs when its array demand exceeds the chip.
func (m *Machine) Placement(net *nn.Network) place.Placement {
	demands := make([]place.Demand, 0, net.ComputeCount())
	for i := range net.Layers {
		if l := &net.Layers[i]; l.IsCompute() {
			demands = append(demands, place.Demand{Layer: l.Name, Arrays: m.Map(l).TotalArrays})
		}
	}
	return place.Place(demands, int64(m.Cfg.MacroSize), int64(m.Cfg.Tiles)*int64(m.Cfg.TileSize))
}

func ceilInt(a, b int) int { return (a + b - 1) / b }

func ceil64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
