package inca

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (plus the motivating figures and the DESIGN.md ablations).
// Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the paper-style rows once (via internal/suite, the
// same code path cmd/inca-experiments uses); EXPERIMENTS.md records
// paper-versus-measured values.

import (
	"context"
	"fmt"
	"testing"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/suite"
)

// printOnce prints s on the benchmark's first iteration only.
func printOnce(i int, s string) {
	if i == 0 {
		fmt.Println(s)
	}
}

// benchSuite runs one suite experiment under the benchmark loop.
func benchSuite(b *testing.B, id string) {
	b.Helper()
	exp, err := suite.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, out)
	}
}

// BenchmarkFig1bDRAMLatency regenerates the DRAM latency-versus-bandwidth
// curve: near-linear below the 80% knee, hockey-stick above it.
func BenchmarkFig1bDRAMLatency(b *testing.B) { benchSuite(b, "fig1b") }

// BenchmarkFig6WSEnergyBreakdown regenerates the WS energy breakdown on
// CIFAR-10 networks: DRAM and buffers occupy the largest portion.
func BenchmarkFig6WSEnergyBreakdown(b *testing.B) { benchSuite(b, "fig6") }

// BenchmarkFig7aMemoryAccesses regenerates the WS-versus-IS access counts
// at the figure's 16-bit precision.
func BenchmarkFig7aMemoryAccesses(b *testing.B) { benchSuite(b, "fig7a") }

// BenchmarkFig7bUnrollBlowup regenerates the unrolled-versus-direct RRAM
// demand (paper: 4.4x, 5.0x, 8.0x, 2.1x for VGG16/19, ResNet18/50).
func BenchmarkFig7bUnrollBlowup(b *testing.B) { benchSuite(b, "fig7b") }

// BenchmarkTable1BitDepthAccuracy regenerates the bit-depth sensitivity
// study: weight quantization hurts more than activation quantization.
func BenchmarkTable1BitDepthAccuracy(b *testing.B) { benchSuite(b, "table1") }

// BenchmarkTable2Configuration prints the Table II configuration summary.
func BenchmarkTable2Configuration(b *testing.B) { benchSuite(b, "table2") }

// BenchmarkFig11EnergyEfficiency regenerates the energy-efficiency
// (throughput-per-watt) comparison for inference and training.
func BenchmarkFig11EnergyEfficiency(b *testing.B) { benchSuite(b, "fig11") }

// BenchmarkFig12LayerwiseEnergy regenerates the per-layer DRAM+buffer
// energy of VGG16: the WS early-layer spike versus INCA's flat profile.
func BenchmarkFig12LayerwiseEnergy(b *testing.B) { benchSuite(b, "fig12") }

// BenchmarkFig13ADCEnergyAndBreakdown regenerates the ADC energy
// comparison (paper: INCA 5x lower on VGG16) and INCA's breakdown.
func BenchmarkFig13ADCEnergyAndBreakdown(b *testing.B) { benchSuite(b, "fig13") }

// BenchmarkTable3BufferAccesses regenerates the Table III estimates at
// the 8-bit Table II precision.
func BenchmarkTable3BufferAccesses(b *testing.B) { benchSuite(b, "table3") }

// BenchmarkFig14Speedup regenerates the latency comparison for inference
// and training.
func BenchmarkFig14Speedup(b *testing.B) { benchSuite(b, "fig14") }

// BenchmarkFig15GPUComparison regenerates the INCA-versus-GPU training
// comparison: energy efficiency and iso-area throughput.
func BenchmarkFig15GPUComparison(b *testing.B) { benchSuite(b, "fig15") }

// BenchmarkFig16Utilization regenerates both utilization plots: the
// array-size sweep (16x16 is INCA's sweet spot) and the per-network
// comparison (WS collapses on light models).
func BenchmarkFig16Utilization(b *testing.B) { benchSuite(b, "fig16") }

// BenchmarkTable4MemoryFootprint regenerates the memory requirements for
// supporting inference plus training.
func BenchmarkTable4MemoryFootprint(b *testing.B) { benchSuite(b, "table4") }

// BenchmarkTable5Area regenerates the area breakdown.
func BenchmarkTable5Area(b *testing.B) { benchSuite(b, "table5") }

// BenchmarkTable6NoiseAccuracy regenerates the device-noise robustness
// study: weight noise (WS) collapses accuracy, activation noise (IS)
// barely moves it.
func BenchmarkTable6NoiseAccuracy(b *testing.B) { benchSuite(b, "table6") }

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationUnrolledIS quantifies what IS would cost with
// GEMM-style unrolling instead of direct convolution across all networks.
func BenchmarkAblationUnrolledIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := "Ablation: IS RRAM demand with unrolling\n"
		for _, net := range Models() {
			u := CountUnroll(net)
			s += fmt.Sprintf("  %-12s blow-up %.2fx\n", net.Name, u.Ratio())
		}
		printOnce(i, s)
	}
}

// BenchmarkAblationBatchParallel isolates the 3D batch parallelism: a
// single-plane INCA loses its per-image training latency advantage.
func BenchmarkAblationBatchParallel(b *testing.B) {
	net, _ := Model("ResNet18")
	for i := 0; i < b.N; i++ {
		full := simulate(b, "is", DefaultINCA(), net, Training)
		cfg := DefaultINCA()
		cfg.StackedPlanes = 1
		cfg.BatchSize = 1
		single := simulate(b, "is", cfg, net, Training)
		printOnce(i, fmt.Sprintf(
			"Ablation: 3D batch parallelism (ResNet18 training)\n  64 planes: %.3g s/image\n  1 plane:   %.3g s/image\n",
			full.Total.Latency/float64(full.Batch),
			single.Total.Latency/float64(single.Batch)))
	}
}

// BenchmarkAblationADCPrecision sweeps INCA's converter resolution,
// isolating the exponential ADC cost of Fig 13a.
func BenchmarkAblationADCPrecision(b *testing.B) {
	net, _ := Model("VGG16")
	for i := 0; i < b.N; i++ {
		s := "Ablation: ADC precision (VGG16 inference ADC energy, J/batch)\n"
		for _, bits := range []int{4, 6, 8} {
			cfg := DefaultINCA()
			cfg.ADCBits = bits
			r := simulate(b, "is", cfg, net, Inference)
			s += fmt.Sprintf("  INCA %d-bit: %.3g\n", bits, r.Total.Energy.Of(metrics.ADC))
		}
		printOnce(i, s)
	}
}

// BenchmarkAblationArraySize sweeps the subarray size for both dataflows
// on a light model.
func BenchmarkAblationArraySize(b *testing.B) {
	net, _ := Model("MobileNetV2")
	for i := 0; i < b.N; i++ {
		s := "Ablation: array size sweep (MobileNetV2 utilization, INCA / WS)\n"
		for _, sz := range []int{16, 32, 64, 128} {
			icfg := DefaultINCA()
			icfg.SubarrayRows, icfg.SubarrayCols = sz, sz
			bcfg := DefaultBaseline()
			bcfg.SubarrayRows, bcfg.SubarrayCols = sz, sz
			s += fmt.Sprintf("  %3d: %.3f / %.3f\n", sz,
				simulate(b, "is", icfg, net, Inference).Utilization(),
				simulate(b, "ws", bcfg, net, Inference).Utilization())
		}
		printOnce(i, s)
	}
}

// BenchmarkAblationBufferSize asks whether a bigger buffer rescues the WS
// baseline: activation residency improves, but the per-position fetch
// pattern keeps the traffic volume.
func BenchmarkAblationBufferSize(b *testing.B) {
	net, _ := Model("VGG16")
	for i := 0; i < b.N; i++ {
		s := "Ablation: WS buffer size sweep (VGG16 inference, J/batch)\n"
		for _, kb := range []int64{64, 256, 1024, 4096} {
			cfg := DefaultBaseline()
			cfg.Buffer.CapacityBytes = kb * 1024
			r := simulate(b, "ws", cfg, net, Inference)
			s += fmt.Sprintf("  %4d KB: total %.3g J (DRAM %.3g J, buffer %.3g J)\n",
				kb, r.Total.Energy.Total(),
				r.Total.Energy.Of(metrics.DRAM), r.Total.Energy.Of(metrics.Buffer))
		}
		printOnce(i, s)
	}
}

// BenchmarkAblationMultiLevelCells sweeps cell precision: multi-level
// cells shrink the activation array demand (fewer bit planes) at the
// price of a higher-resolution ADC.
func BenchmarkAblationMultiLevelCells(b *testing.B) {
	net, _ := Model("ResNet18")
	for i := 0; i < b.N; i++ {
		s := "Ablation: multi-level cells (ResNet18 inference)\n"
		for _, cellBits := range []int{1, 2, 4} {
			cfg := DefaultINCA()
			cfg.CellBits = cellBits
			// Each extra stored bit demands ~2 more bits of converter
			// headroom on the window sums.
			cfg.ADCBits = 4 + 2*(cellBits-1)
			r := simulate(b, "is", cfg, net, Inference)
			s += fmt.Sprintf("  %d-bit cells (ADC %d-bit): %.3g J, %.3g s, %d arrays/value\n",
				cellBits, cfg.ADCBits, r.Total.Energy.Total(), r.Total.Latency, cfg.ActPlanes())
		}
		printOnce(i, s)
	}
}

// BenchmarkAblationWriteOverlap isolates the write/read pipeline hiding
// of §V.B.2.
func BenchmarkAblationWriteOverlap(b *testing.B) {
	net, _ := Model("VGG16")
	for i := 0; i < b.N; i++ {
		on := simulate(b, "is", DefaultINCA(), net, Inference)
		cfg := DefaultINCA()
		cfg.WriteReadOverlap = false
		off := simulate(b, "is", cfg, net, Inference)
		printOnce(i, fmt.Sprintf(
			"Ablation: RRAM write/read overlap (VGG16 inference)\n  overlap on:  %.3g s\n  overlap off: %.3g s\n",
			on.Total.Latency, off.Total.Latency))
	}
}

// --- Future-work extensions (§VI) ---

// BenchmarkFutureWorkEndurance regenerates the endurance analysis: IS
// rewrites activations every batch, WS only rewrites weights in training.
func BenchmarkFutureWorkEndurance(b *testing.B) { benchSuite(b, "ext-endurance") }

// BenchmarkFutureWorkDeviceCandidates evaluates INCA on the alternative
// device technologies the paper's future work points at.
func BenchmarkFutureWorkDeviceCandidates(b *testing.B) { benchSuite(b, "ext-devices") }

// BenchmarkBatchSweep regenerates the batch-size amortization of the 3D
// planes.
func BenchmarkBatchSweep(b *testing.B) { benchSuite(b, "ext-batch") }

// --- Performance micro-benchmarks (allocation profile of the hot paths) ---

// BenchmarkSimulateINCAVGG16 measures one analytical INCA simulation.
func BenchmarkSimulateINCAVGG16(b *testing.B) {
	benchSimulate(b, "is", DefaultINCA())
}

// BenchmarkSimulateBaselineVGG16 measures one analytical WS simulation.
func BenchmarkSimulateBaselineVGG16(b *testing.B) {
	benchSimulate(b, "ws", DefaultBaseline())
}

// benchSimulate measures one VGG16 training simulation on a machine
// built through the registry.
func benchSimulate(b *testing.B, dataflowID string, cfg Config) {
	m, err := NewMachine(dataflowID, cfg)
	if err != nil {
		b.Fatal(err)
	}
	net, _ := Model("VGG16")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Simulate(context.Background(), net, Training); err != nil {
			b.Fatal(err)
		}
	}
}
