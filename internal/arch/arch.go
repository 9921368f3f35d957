// Package arch is the single source of truth for the architecture
// configurations of the paper's Table II: the INCA accelerator, the 2D
// weight-stationary baseline (ISAAC-style inference + PipeLayer-style
// training), the shared circuit constants, and the Table V area model.
package arch

import (
	"fmt"
	"math"

	"github.com/inca-arch/inca/internal/analog"
	"github.com/inca-arch/inca/internal/mem"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/rram"
)

// Dataflow selects which operand stays resident in the PIM arrays.
type Dataflow int

// Supported dataflows.
const (
	WeightStationary Dataflow = iota
	InputStationary
	OutputStationary
)

// String returns the dataflow's display name.
func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "WS"
	case OutputStationary:
		return "OS"
	default:
		return "IS"
	}
}

// Config describes one accelerator instance (one column of Table II).
type Config struct {
	Name     string
	Dataflow Dataflow

	// Array organization. The baseline has StackedPlanes == 1 (2D);
	// INCA stacks 64 vertical planes per 3D array.
	SubarrayRows  int
	SubarrayCols  int
	StackedPlanes int

	// Hierarchy: Tiles × TileSize macros × MacroSize subarrays.
	Tiles     int
	TileSize  int // macros per tile
	MacroSize int // subarrays (or 3D arrays) per macro

	CellBits        int
	ADCBits         int
	SubarraysPerADC int // ADC sharing factor (16 for INCA, 1 for baseline)

	WeightBits     int
	ActivationBits int
	BatchSize      int

	Buffer mem.Buffer
	DRAM   mem.DRAM

	Device rram.Device

	// Cell geometry (pre-scaling, from the 65 nm layout) and the linear
	// scale factor to the 22 nm accelerator node.
	CellWidth, CellLength float64 // meters at 65 nm
	ScaleFactor           float64 // 0.34: 65 nm -> 22 nm linear scaling
	// CellsPerFootprint is how many cells share one projected 2D footprint
	// (16 for INCA's vertical stacking, 1 for the planar baseline).
	CellsPerFootprint int

	// WriteReadOverlap enables INCA's pipeline-style hiding of RRAM write
	// latency behind reads (§V.B.2). Exposed as a knob for ablation.
	WriteReadOverlap bool
}

// defaultBuffer returns the shared 64 KB / 256-bit buffer of Table II.
// Per-beat energies are 22 nm SRAM-class estimates (NeuroSim/CACTI range
// for a 64 KB array with its wide-bus periphery).
func defaultBuffer() mem.Buffer {
	return mem.Buffer{
		CapacityBytes: 64 * 1024,
		BusWidthBits:  256,
		ReadEnergy:    400e-12,
		WriteEnergy:   450e-12,
		BeatLatency:   1e-9,
	}
}

// defaultDRAM returns the 8 GB HBM2 model: 32 pJ per 8-bit access (the
// paper's adopted NeuroSim+ estimate) and HBM2-class bandwidth.
func defaultDRAM() mem.DRAM {
	return mem.DRAM{
		EnergyPerByte: 32e-12,
		PeakBandwidth: 256e9,
		BaseLatency:   100e-9,
		Knee:          0.8,
	}
}

// INCA returns the INCA accelerator configuration of Table II.
func INCA() Config {
	return Config{
		Name:              "INCA",
		Dataflow:          InputStationary,
		SubarrayRows:      16,
		SubarrayCols:      16,
		StackedPlanes:     64,
		Tiles:             168,
		TileSize:          12,
		MacroSize:         8,
		CellBits:          1,
		ADCBits:           4,
		SubarraysPerADC:   16,
		WeightBits:        8,
		ActivationBits:    8,
		BatchSize:         64,
		Buffer:            defaultBuffer(),
		DRAM:              defaultDRAM(),
		Device:            rram.DefaultDevice(),
		CellWidth:         600e-9,
		CellLength:        700e-9,
		ScaleFactor:       0.34,
		CellsPerFootprint: 16,
		WriteReadOverlap:  true,
	}
}

// Baseline returns the 2D WS baseline configuration of Table II
// (ISAAC-referenced inference, PipeLayer-referenced training).
func Baseline() Config {
	return Config{
		Name:              "WS-Baseline",
		Dataflow:          WeightStationary,
		SubarrayRows:      128,
		SubarrayCols:      128,
		StackedPlanes:     1,
		Tiles:             168,
		TileSize:          12,
		MacroSize:         8,
		CellBits:          1,
		ADCBits:           8,
		SubarraysPerADC:   1,
		WeightBits:        8,
		ActivationBits:    8,
		BatchSize:         64,
		Buffer:            defaultBuffer(),
		DRAM:              defaultDRAM(),
		Device:            rram.DefaultDevice(),
		CellWidth:         540e-9,
		CellLength:        485e-9,
		ScaleFactor:       0.34,
		CellsPerFootprint: 1,
		WriteReadOverlap:  false,
	}
}

// OutStationary returns the output-stationary comparison point: a 2D
// crossbar organization iso-capacity with the WS baseline, but operated
// MAC-DO-style — partial sums accumulate in place at the array and each
// output element is converted exactly once, while inputs and weights
// both stream. The tile aspect (SubarrayRows × SubarrayCols) is the
// mapping knob: rows bound the output-position tile, columns the
// output-channel tile, so reshaping the array trades weight refetches
// against input refetches.
func OutStationary() Config {
	c := Baseline()
	c.Name = "OS-Baseline"
	c.Dataflow = OutputStationary
	return c
}

// Validate checks structural invariants of the configuration.
func (c Config) Validate() error {
	if c.SubarrayRows <= 0 || c.SubarrayCols <= 0 || c.StackedPlanes <= 0 {
		return fmt.Errorf("arch: invalid array geometry %dx%dx%d", c.SubarrayRows, c.SubarrayCols, c.StackedPlanes)
	}
	if c.Tiles <= 0 || c.TileSize <= 0 || c.MacroSize <= 0 {
		return fmt.Errorf("arch: invalid hierarchy %d/%d/%d", c.Tiles, c.TileSize, c.MacroSize)
	}
	if c.ADCBits < 1 || c.WeightBits < 2 || c.ActivationBits < 2 {
		return fmt.Errorf("arch: invalid precisions")
	}
	if c.CellBits < 1 || c.CellBits > c.WeightBits {
		return fmt.Errorf("arch: invalid cell bits %d for %d-bit weights", c.CellBits, c.WeightBits)
	}
	if c.SubarraysPerADC < 1 {
		return fmt.Errorf("arch: invalid ADC sharing %d", c.SubarraysPerADC)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("arch: invalid batch size %d", c.BatchSize)
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	return nil
}

// Subarrays returns the total subarray (or 3D-array) count.
func (c *Config) Subarrays() int { return c.Tiles * c.TileSize * c.MacroSize }

// ActPlanes returns how many bit-plane arrays one activation value needs:
// with single-bit cells (Table II) this equals the activation precision;
// multi-level cells pack CellBits bits per device and shrink the array
// demand proportionally (at the cost of ADC resolution — an ablation knob,
// not a paper configuration).
func (c *Config) ActPlanes() int {
	if c.CellBits < 1 {
		return c.ActivationBits
	}
	return (c.ActivationBits + c.CellBits - 1) / c.CellBits
}

// WeightSlices returns how many cells one weight value needs, the twin
// of ActPlanes: a weight whose width is not a multiple of CellBits takes
// one more cell for its leftover bits.
func (c *Config) WeightSlices() int {
	if c.CellBits < 1 {
		return c.WeightBits
	}
	return (c.WeightBits + c.CellBits - 1) / c.CellBits
}

// CellsPerSubarray returns the RRAM cell count of one subarray including
// stacked planes.
func (c *Config) CellsPerSubarray() int {
	return c.SubarrayRows * c.SubarrayCols * c.StackedPlanes
}

// TotalCells returns the accelerator's total RRAM cell count. Table II's
// two designs are iso-capacity: 16×16×64 == 128×128.
func (c *Config) TotalCells() int64 {
	return int64(c.Subarrays()) * int64(c.CellsPerSubarray())
}

// ADCCount returns the number of ADCs (subarrays divided by the sharing
// factor, at least one per macro).
func (c *Config) ADCCount() int {
	n := c.Subarrays() / c.SubarraysPerADC
	if n < 1 {
		n = 1
	}
	return n
}

// ADC returns the configured converter model.
func (c Config) ADC() analog.ADC { return analog.NewADC(c.ADCBits) }

// DACsPerSubarray returns the number of input drivers per subarray: one
// per row for the 2D baseline, one per pillar (rows × cols) for INCA's 3D
// arrays (Table V lists 128 vs 256 per macro unit; the ratio is what
// matters — INCA needs twice the drivers of the baseline per macro).
func (c *Config) DACsPerSubarray() int {
	if c.StackedPlanes > 1 {
		return c.SubarrayRows * c.SubarrayCols
	}
	return c.SubarrayRows
}

// cellFootprint returns the scaled projected area (m²) of one cell
// footprint. For 3D INCA, CellsPerFootprint cells share it.
func (c Config) cellFootprint() float64 {
	raw := c.CellWidth * c.CellLength
	return raw * c.ScaleFactor * c.ScaleFactor
}

// SubarrayArea returns the projected 2D area of one subarray in mm²
// (paper §V.B.6: one 128×128 baseline crossbar is 491.52 µm²; one
// 16×16×64 INCA array is 49.152 µm²).
func (c Config) SubarrayArea() float64 {
	footprints := float64(c.CellsPerSubarray()) / float64(c.CellsPerFootprint)
	return footprints * c.cellFootprint() * 1e6 // m² -> mm²
}

// Area model constants taken from the paper's Table V per-unit values
// (buffer and post-processing estimated from ISAAC/FORMS, "Others"
// measured by NeuroSim+). Per-unit figures are totals divided by counts.
const (
	bufferAreaPerTile   = 13.944 / 168.0 // mm² per 64 KB tile buffer
	postProcAreaPerTile = 3.656 / 168.0  // mm² per ReLU+max-pool unit
	adcArea8Bit         = 30.298 / 16128 // mm² per 8-bit ADC
	dacArea1Bit         = 0.343 / (16128.0 * 128.0)
	othersAreaWS        = 27.920 // mm² total, NeuroSim-measured
	othersAreaIS        = 24.249 // mm² total, NeuroSim-measured
)

// Area computes the Table V breakdown for this configuration.
func (c Config) Area() metrics.Area {
	// ADC area: Table V's 8-bit and 4-bit per-unit values differ by 6.61×
	// over 4 bits; interpolate geometrically between those two anchors.
	adcUnit := adcArea8Bit * math.Pow(6.606, float64(c.ADCBits-8)/4)
	// Table V counts one ADC slot per subarray position for both designs.
	nADC := float64(c.Subarrays())
	others := othersAreaWS
	if c.Dataflow == InputStationary {
		others = othersAreaIS
	}
	return metrics.Area{
		Buffer:         bufferAreaPerTile * float64(c.Tiles),
		Array:          c.SubarrayArea() * float64(c.Subarrays()),
		ADC:            adcUnit * nADC,
		DAC:            dacArea1Bit * float64(c.DACsPerSubarray()) * float64(c.Subarrays()),
		PostProcessing: postProcAreaPerTile * float64(c.Tiles),
		Others:         others,
	}
}
