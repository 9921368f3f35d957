package core

import (
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/baseline"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

func machine() *Machine { return New(arch.INCA()) }

func TestMapSpatialConv(t *testing.T) {
	m := machine()
	l := nn.Layer{Kind: nn.Conv, InC: 64, OutC: 64, InH: 224, InW: 224,
		OutH: 224, OutW: 224, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mp := m.Map(&l)
	if mp.Groups != 64 {
		t.Fatalf("Groups = %d, want 64", mp.Groups)
	}
	// 224/16 = 14 partitions per side.
	if mp.TotalArrays != 14*14*64*8 {
		t.Fatalf("TotalArrays = %d, want %d", mp.TotalArrays, 14*14*64*8)
	}
	if mp.Windows != 224*224 || mp.WindowCells != 9 {
		t.Fatalf("windows/cells = %d/%d", mp.Windows, mp.WindowCells)
	}
	// Exact tiling: full utilization.
	if mp.Utilization != 1.0 {
		t.Fatalf("Utilization = %v, want 1", mp.Utilization)
	}
	if mp.SerialOut != 64 {
		t.Fatalf("SerialOut = %d, want 64 (kernels stream sequentially)", mp.SerialOut)
	}
}

func TestMapConvPartialTile(t *testing.T) {
	m := machine()
	// 14×14 map on 16×16 planes: one partition, 196/256 utilization.
	l := nn.Layer{Kind: nn.Conv, InC: 512, OutC: 512, InH: 14, InW: 14,
		OutH: 14, OutW: 14, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mp := m.Map(&l)
	if mp.TotalArrays != 512*8 {
		t.Fatalf("TotalArrays = %d, want %d", mp.TotalArrays, 512*8)
	}
	want := 196.0 / 256.0
	if mp.Utilization != want {
		t.Fatalf("Utilization = %v, want %v", mp.Utilization, want)
	}
}

func TestMapPointwiseFold(t *testing.T) {
	m := machine()
	// Pointwise with 512 channels folds onto 2 planes of 256.
	l := nn.Layer{Kind: nn.Conv, InC: 512, OutC: 128, InH: 14, InW: 14,
		OutH: 14, OutW: 14, KH: 1, KW: 1, Stride: 1}
	mp := m.Map(&l)
	if mp.Groups != 2 {
		t.Fatalf("Groups = %d, want 2 fold groups", mp.Groups)
	}
	if mp.WindowCells != 256 {
		t.Fatalf("WindowCells = %d, want 256", mp.WindowCells)
	}
	if mp.Utilization != 1.0 {
		t.Fatalf("Utilization = %v, want 1 (512 divides 2 planes)", mp.Utilization)
	}
	if mp.SerialWindows != 1 {
		t.Fatalf("SerialWindows = %d, want 1 (positions parallel)", mp.SerialWindows)
	}
}

func TestMapPointwisePacking(t *testing.T) {
	m := machine()
	// 32-channel pointwise packs 8 positions per plane.
	l := nn.Layer{Kind: nn.Conv, InC: 32, OutC: 16, InH: 112, InW: 112,
		OutH: 112, OutW: 112, KH: 1, KW: 1, Stride: 1}
	mp := m.Map(&l)
	if mp.SerialWindows != 8 {
		t.Fatalf("SerialWindows = %d, want 8 (packed positions serialize)", mp.SerialWindows)
	}
	if mp.Utilization != 1.0 {
		t.Fatalf("Utilization = %v, want 1 (8×32 = 256)", mp.Utilization)
	}
}

func TestMapDepthwiseParallelChannels(t *testing.T) {
	m := machine()
	l := nn.Layer{Kind: nn.Depthwise, InC: 576, OutC: 576, InH: 14, InW: 14,
		OutH: 14, OutW: 14, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mp := m.Map(&l)
	if mp.Groups != 1 {
		t.Fatalf("Groups = %d, want 1 (no cross-channel accumulation)", mp.Groups)
	}
	if mp.SerialOut != 1 {
		t.Fatalf("SerialOut = %d, want 1 (per-channel arrays take their own kernels)", mp.SerialOut)
	}
}

func TestMapFC(t *testing.T) {
	m := machine()
	l := nn.Layer{Kind: nn.FC, InC: 4096, OutC: 1000, InH: 1, InW: 1, OutH: 1, OutW: 1}
	mp := m.Map(&l)
	if mp.Groups != 16 {
		t.Fatalf("Groups = %d, want 16 (4096/256)", mp.Groups)
	}
	if mp.Windows != 1 || mp.SerialOut != 1000 {
		t.Fatalf("windows/serialOut = %d/%d", mp.Windows, mp.SerialOut)
	}
}

func TestHaloFraction(t *testing.T) {
	if haloFraction(1, 16) != 0 {
		t.Fatal("1x1 kernels have no halo")
	}
	h3 := haloFraction(3, 16)
	want := 1 - (14.0/16)*(14.0/16)
	if h3 != want {
		t.Fatalf("halo(3,16) = %v, want %v", h3, want)
	}
	if h5 := haloFraction(5, 16); h5 <= h3 {
		t.Fatal("larger kernels must have more halo")
	}
}

func TestSimulateInferenceBasics(t *testing.T) {
	m := machine()
	rep := m.Simulate(nn.ResNet18(), sim.Inference)
	if rep.Total.Energy.Total() <= 0 || rep.Total.Latency <= 0 {
		t.Fatal("inference must cost energy and time")
	}
	if rep.Total.Counts.RRAMWrites == 0 {
		t.Fatal("IS dataflow must write activations into RRAM")
	}
}

func TestTrainingCostsMoreThanInference(t *testing.T) {
	m := machine()
	inf := m.Simulate(nn.ResNet18(), sim.Inference)
	trn := m.Simulate(nn.ResNet18(), sim.Training)
	if trn.Total.Energy.Total() <= inf.Total.Energy.Total() {
		t.Fatal("training energy should exceed inference")
	}
	if trn.Total.Latency <= inf.Total.Latency {
		t.Fatal("training latency should exceed inference")
	}
	// But batch parallelism keeps training within ~5x of inference
	// latency (three batch-parallel passes), unlike the WS baseline.
	if trn.Total.Latency > 6*inf.Total.Latency {
		t.Fatalf("training/inference latency = %.1f, want <= 6 (batch-parallel backward)",
			trn.Total.Latency/inf.Total.Latency)
	}
}

// TestFig11EnergyAndFig14Speedup pins the headline comparison shapes
// across all six networks: INCA beats the WS baseline in both energy and
// latency, the training advantage exceeds the inference advantage, and
// the light models gain at least an order of magnitude more energy
// efficiency than the heavy models.
func TestFig11EnergyAndFig14Speedup(t *testing.T) {
	inca := machine()
	base := baseline.New(arch.Baseline())

	type ratios struct{ eInf, sInf, eTrn, sTrn float64 }
	all := map[string]ratios{}
	for _, net := range nn.PaperModels() {
		ai := inca.Simulate(net, sim.Inference)
		bi := base.Simulate(net, sim.Inference)
		at := inca.Simulate(net, sim.Training)
		bt := base.Simulate(net, sim.Training)
		r := ratios{
			eInf: ai.Total.EnergyEfficiencyVs(bi.Total),
			sInf: ai.Total.SpeedupVs(bi.Total),
			eTrn: at.Total.EnergyEfficiencyVs(bt.Total),
			sTrn: at.Total.SpeedupVs(bt.Total),
		}
		all[net.Name] = r
		if r.eInf < 1.5 {
			t.Errorf("%s: inference energy ratio = %.2f, want >= 1.5", net.Name, r.eInf)
		}
		if r.sInf < 1.5 {
			t.Errorf("%s: inference speedup = %.2f, want >= 1.5", net.Name, r.sInf)
		}
		if r.eTrn < r.eInf*0.9 {
			t.Errorf("%s: training energy ratio %.2f should not fall below inference %.2f",
				net.Name, r.eTrn, r.eInf)
		}
		if r.sTrn <= r.sInf {
			t.Errorf("%s: training speedup %.2f should exceed inference %.2f (batch parallelism)",
				net.Name, r.sTrn, r.sInf)
		}
	}
	// Light models gain far more than heavy models (paper: 80x/3873x vs
	// 20.6x/260x class results).
	for _, light := range []string{"MobileNetV2", "MNasNet"} {
		for _, heavy := range []string{"VGG16", "VGG19", "ResNet18", "ResNet50"} {
			if all[light].eInf < 3*all[heavy].eInf {
				t.Errorf("light %s inference energy ratio %.1f should be >= 3x heavy %s (%.1f)",
					light, all[light].eInf, heavy, all[heavy].eInf)
			}
			if all[light].sTrn < 3*all[heavy].sTrn {
				t.Errorf("light %s training speedup %.1f should be >= 3x heavy %s (%.1f)",
					light, all[light].sTrn, heavy, all[heavy].sTrn)
			}
		}
	}
}

// TestFig13aADCEnergyRatio pins "ADCs of INCA spend 5× less energy in
// total than ADCs of the baseline" for VGG16 (band 3..8).
func TestFig13aADCEnergyRatio(t *testing.T) {
	inca := machine().Simulate(nn.VGG16(), sim.Inference)
	base := baseline.New(arch.Baseline()).Simulate(nn.VGG16(), sim.Inference)
	ratio := base.Total.Energy.Of(metrics.ADC) / inca.Total.Energy.Of(metrics.ADC)
	if ratio < 3 || ratio > 8 {
		t.Fatalf("ADC energy ratio = %.2f, want within [3, 8] (paper: 5x)", ratio)
	}
}

// TestFig13bReducedMemoryShare pins the breakdown comparison: INCA's
// DRAM+buffer share is far below the WS baseline's (Fig. 6 vs Fig. 13b).
func TestFig13bReducedMemoryShare(t *testing.T) {
	icfg := arch.INCA()
	icfg.BatchSize = 1
	bcfg := arch.Baseline()
	bcfg.BatchSize = 1
	inca := New(icfg).Simulate(nn.VGG16(), sim.Inference)
	base := baseline.New(bcfg).Simulate(nn.VGG16(), sim.Inference)
	memShare := func(r *sim.Report) float64 {
		return r.Total.Energy.Share(metrics.DRAM) + r.Total.Energy.Share(metrics.Buffer)
	}
	if memShare(inca) >= memShare(base) {
		t.Fatalf("INCA memory share %.2f should be below baseline %.2f",
			memShare(inca), memShare(base))
	}
}

// TestFig16aUtilizationVsArraySize pins the array-size sweep: INCA's
// utilization decreases monotonically as the subarray grows, and 16×16
// stays competitive (>= 0.7 for VGG16).
func TestFig16aUtilizationVsArraySize(t *testing.T) {
	var prev float64 = 2
	for _, s := range []int{8, 16, 32, 64, 128} {
		cfg := arch.INCA()
		cfg.SubarrayRows, cfg.SubarrayCols = s, s
		u := New(cfg).Simulate(nn.VGG16(), sim.Inference).Utilization()
		if u >= prev {
			t.Fatalf("utilization did not decrease at size %d: %.3f >= %.3f", s, u, prev)
		}
		if s == 16 && u < 0.7 {
			t.Fatalf("16x16 utilization = %.3f, want >= 0.7 (the paper's optimized size)", u)
		}
		prev = u
	}
}

// TestFig16bINCAUtilizationFlat pins that INCA keeps utilization high
// for light models while the baseline collapses.
func TestFig16bINCAUtilizationFlat(t *testing.T) {
	m := machine()
	for _, net := range nn.PaperModels() {
		u := m.Simulate(net, sim.Inference).Utilization()
		if u < 0.5 {
			t.Errorf("%s: INCA utilization = %.3f, want >= 0.5 (maintained across networks)",
				net.Name, u)
		}
	}
}

// TestAblationWriteOverlap pins §V.B.2: disabling the write/read overlap
// increases latency.
func TestAblationWriteOverlap(t *testing.T) {
	on := machine().Simulate(nn.ResNet18(), sim.Inference)
	cfg := arch.INCA()
	cfg.WriteReadOverlap = false
	off := New(cfg).Simulate(nn.ResNet18(), sim.Inference)
	if off.Total.Latency <= on.Total.Latency {
		t.Fatalf("exposed writes should be slower: %v vs %v",
			off.Total.Latency, on.Total.Latency)
	}
}

// TestAblationBatchParallelism pins the source of the training gains: a
// single-plane INCA (no 3D batch parallelism) loses most of its training
// latency advantage per image.
func TestAblationBatchParallelism(t *testing.T) {
	full := machine().Simulate(nn.ResNet18(), sim.Training)
	cfg := arch.INCA()
	cfg.StackedPlanes = 1
	cfg.BatchSize = 1
	single := New(cfg).Simulate(nn.ResNet18(), sim.Training)
	perImageFull := full.Total.Latency / float64(full.Batch)
	perImageSingle := single.Total.Latency / float64(single.Batch)
	if perImageFull >= perImageSingle {
		t.Fatalf("batch parallelism should cut per-image latency: %v vs %v",
			perImageFull, perImageSingle)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := arch.INCA()
	cfg.SubarrayRows = -1
	New(cfg)
}
