package baseline

import (
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

func machine() *Machine { return New(arch.Baseline()) }

func TestLayerGeometryConv(t *testing.T) {
	m := machine()
	// VGG16 conv2: 3x3x64 -> 64, unrolled rows 576, cols 64*8=512.
	l := nn.Layer{Kind: nn.Conv, InC: 64, OutC: 64, InH: 224, InW: 224,
		OutH: 224, OutW: 224, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g := m.layerGeometry(&l)
	if g.rows != 576 || g.cols != 512 {
		t.Fatalf("rows/cols = %d/%d, want 576/512", g.rows, g.cols)
	}
	if g.rowBlocks != 5 || g.colBlocks != 4 {
		t.Fatalf("blocks = %dx%d, want 5x4", g.rowBlocks, g.colBlocks)
	}
	if g.crossbars != 20 {
		t.Fatalf("crossbars = %d, want 20", g.crossbars)
	}
	if g.usefulCells != 576*512 {
		t.Fatalf("usefulCells = %d, want %d", g.usefulCells, 576*512)
	}
	if g.positions != 224*224 {
		t.Fatalf("positions = %d", g.positions)
	}
}

func TestLayerGeometryDepthwiseBlockDiagonal(t *testing.T) {
	m := machine()
	// Depthwise 3x3 over 128 channels: only 9 of each column's rows are
	// useful (paper §V.B.4).
	l := nn.Layer{Kind: nn.Depthwise, InC: 128, OutC: 128, InH: 14, InW: 14,
		OutH: 14, OutW: 14, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g := m.layerGeometry(&l)
	if g.rows != 9*128 {
		t.Fatalf("rows = %d, want 1152", g.rows)
	}
	if g.usefulCells != 9*8*128 {
		t.Fatalf("usefulCells = %d, want %d", g.usefulCells, 9*8*128)
	}
	util := m.utilization(&g)
	if util > 0.05 {
		t.Fatalf("depthwise utilization = %v, want < 5%%", util)
	}
}

func TestLayerGeometryFC(t *testing.T) {
	m := machine()
	l := nn.Layer{Kind: nn.FC, InC: 4096, OutC: 1000, InH: 1, InW: 1, OutH: 1, OutW: 1}
	g := m.layerGeometry(&l)
	if g.positions != 1 || g.rows != 4096 || g.cols != 8000 {
		t.Fatalf("fc geometry = %+v", g)
	}
}

func TestUtilizationConvNearFull(t *testing.T) {
	m := machine()
	// 128-deep accumulation fills the crossbars exactly.
	l := nn.Layer{Kind: nn.Conv, InC: 128, OutC: 16, InH: 16, InW: 16,
		OutH: 16, OutW: 16, KH: 1, KW: 1, Stride: 1}
	g := m.layerGeometry(&l)
	if u := m.utilization(&g); u != 1.0 {
		t.Fatalf("perfectly tiled conv utilization = %v, want 1", u)
	}
}

func TestSimulateInferenceBasics(t *testing.T) {
	m := machine()
	rep := m.Simulate(nn.ResNet18(), sim.Inference)
	if rep.Total.Energy.Total() <= 0 || rep.Total.Latency <= 0 {
		t.Fatal("inference must cost energy and time")
	}
	if len(rep.Layers) != len(nn.ResNet18().ComputeLayers()) {
		t.Fatalf("layer results = %d, want one per compute layer", len(rep.Layers))
	}
	if rep.Batch != 64 {
		t.Fatalf("batch = %d, want Table II's 64", rep.Batch)
	}
}

func TestTrainingCostsMoreThanInference(t *testing.T) {
	m := machine()
	for _, net := range []*nn.Network{nn.VGG16CIFAR(), nn.ResNet18CIFAR()} {
		inf := m.Simulate(net, sim.Inference)
		trn := m.Simulate(net, sim.Training)
		if trn.Total.Energy.Total() <= inf.Total.Energy.Total() {
			t.Errorf("%s: training energy should exceed inference", net.Name)
		}
		// Training serializes images (no layer pipeline), so the latency
		// penalty is superlinear vs the pipelined inference.
		if trn.Total.Latency <= 2*inf.Total.Latency {
			t.Errorf("%s: training latency %v should be much larger than inference %v",
				net.Name, trn.Total.Latency, inf.Total.Latency)
		}
	}
}

// TestFig6MemoryDominatesWS pins the paper's motivation: with CIFAR-10
// networks, DRAM and buffers occupy the largest portion of WS energy
// (weight loading plus per-position fetch/save traffic).
func TestFig6MemoryDominatesWS(t *testing.T) {
	cfg := arch.Baseline()
	cfg.BatchSize = 1
	m := New(cfg)
	for _, net := range []*nn.Network{nn.VGG16CIFAR(), nn.ResNet18CIFAR()} {
		rep := m.Simulate(net, sim.Inference)
		memShare := rep.Total.Energy.Share(metrics.DRAM) + rep.Total.Energy.Share(metrics.Buffer)
		if memShare < 0.40 {
			t.Errorf("%s: DRAM+buffer share = %.2f, want >= 0.40 (Fig. 6: largest portion)",
				net.Name, memShare)
		}
		for _, c := range []metrics.Component{metrics.RRAMArray, metrics.DAC, metrics.Digital} {
			if rep.Total.Energy.Share(c) > memShare {
				t.Errorf("%s: %v share exceeds DRAM+buffer", net.Name, c)
			}
		}
	}
}

// TestFig16bWSUtilizationCollapse pins the light-model utilization drop:
// VGGs/ResNets stay high, MobileNetV2/MNasNet collapse.
func TestFig16bWSUtilizationCollapse(t *testing.T) {
	m := machine()
	for _, net := range nn.HeavyModels() {
		u := m.Simulate(net, sim.Inference).Utilization()
		if u < 0.5 {
			t.Errorf("%s: WS utilization = %.3f, want >= 0.5", net.Name, u)
		}
	}
	for _, net := range nn.LightModels() {
		u := m.Simulate(net, sim.Inference).Utilization()
		if u > 0.25 {
			t.Errorf("%s: WS utilization = %.3f, want <= 0.25 (drastic drop)", net.Name, u)
		}
	}
}

// TestFig12EarlyLayerSpike pins the layerwise shape: in WS, early VGG16
// conv layers consume far more DRAM+buffer energy than the deepest ones
// ("the early layers carry out most of the convolutions ... loaded and
// saved during the remarkable convolution operations").
func TestFig12EarlyLayerSpike(t *testing.T) {
	m := machine()
	rep := m.Simulate(nn.VGG16(), sim.Inference)
	memOf := func(lr sim.LayerResult) float64 {
		return lr.Result.Energy.Of(metrics.DRAM) + lr.Result.Energy.Of(metrics.Buffer)
	}
	var convs []sim.LayerResult
	for _, lr := range rep.Layers {
		if lr.Layer.Kind == nn.Conv {
			convs = append(convs, lr)
		}
	}
	early := memOf(convs[1]) // conv2, the 224×224×64 monster
	late := memOf(convs[len(convs)-1])
	if early < 5*late {
		t.Fatalf("early/late layerwise memory energy = %.1f, want >= 5x spike", early/late)
	}
}

func TestProgramWeightsDoublesForTraining(t *testing.T) {
	m := machine()
	net := nn.LeNet5()
	var cells int64
	for i := range net.Layers {
		if net.Layers[i].IsCompute() {
			cells += m.layerGeometry(&net.Layers[i]).usefulCells
		}
	}
	var inf, trn metrics.Result
	m.programWeights(&inf, cells, false)
	m.programWeights(&trn, cells, true)
	if trn.Counts.RRAMWrites != 2*inf.Counts.RRAMWrites {
		t.Fatalf("transposed weights should double writes: %d vs %d",
			trn.Counts.RRAMWrites, inf.Counts.RRAMWrites)
	}
	if trn.Energy.Of(metrics.DRAM) <= inf.Energy.Of(metrics.DRAM) {
		t.Fatal("transposed weights should add DRAM traffic")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := arch.Baseline()
	cfg.Tiles = 0
	New(cfg)
}

func TestScaleHelper(t *testing.T) {
	var r metrics.Result
	r.Latency = 2
	r.Energy.Add(metrics.ADC, 3)
	r.Counts.RRAMReads = 10
	r.Scale(2.5)
	if r.Latency != 5 || r.Energy.Of(metrics.ADC) != 7.5 || r.Counts.RRAMReads != 25 {
		t.Fatalf("Scale = %+v", r)
	}
}
