package arch

import (
	"math"
	"strings"
	"testing"
)

func TestConfigsValidate(t *testing.T) {
	for _, c := range []Config{INCA(), Baseline()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestTableIIValues pins the headline Table II configuration facts.
func TestTableIIValues(t *testing.T) {
	inca := INCA()
	if inca.SubarrayRows != 16 || inca.SubarrayCols != 16 || inca.StackedPlanes != 64 {
		t.Fatal("INCA array geometry mismatch with Table II")
	}
	if inca.ADCBits != 4 || inca.SubarraysPerADC != 16 {
		t.Fatal("INCA ADC configuration mismatch with Table II")
	}
	if inca.WeightBits != 8 || inca.ActivationBits != 8 || inca.BatchSize != 64 {
		t.Fatal("INCA precision/batch mismatch with Table II")
	}
	base := Baseline()
	if base.SubarrayRows != 128 || base.SubarrayCols != 128 || base.StackedPlanes != 1 {
		t.Fatal("baseline array geometry mismatch with Table II")
	}
	if base.ADCBits != 8 {
		t.Fatal("baseline ADC precision mismatch with Table II")
	}
	if base.Buffer.CapacityBytes != 64*1024 || base.Buffer.BusWidthBits != 256 {
		t.Fatal("buffer configuration mismatch with Table II")
	}
	if base.DRAM.EnergyPerByte != 32e-12 {
		t.Fatal("HBM2 energy mismatch with the adopted 32pJ/8-bit")
	}
}

// TestIsoCapacity verifies the paper's fairness constraint: one INCA 3D
// array (16×16×64) holds exactly as many cells as one baseline crossbar
// (128×128), and both designs organize the same subarray counts.
func TestIsoCapacity(t *testing.T) {
	inca, base := INCA(), Baseline()
	if inca.CellsPerSubarray() != base.CellsPerSubarray() {
		t.Fatalf("cells per subarray: INCA %d, baseline %d",
			inca.CellsPerSubarray(), base.CellsPerSubarray())
	}
	if inca.TotalCells() != base.TotalCells() {
		t.Fatalf("total cells: INCA %d, baseline %d", inca.TotalCells(), base.TotalCells())
	}
	if inca.Subarrays() != 168*12*8 {
		t.Fatalf("subarrays = %d, want 16128", inca.Subarrays())
	}
}

// TestSubarrayAreaMatchesPaper pins §V.B.6: one baseline crossbar needs
// ~491.52 µm² while one INCA 3D array needs ~49.152 µm² (10× smaller).
func TestSubarrayAreaMatchesPaper(t *testing.T) {
	base := Baseline().SubarrayArea() * 1e6 // mm² -> µm²
	inca := INCA().SubarrayArea() * 1e6
	if math.Abs(base-491.52)/491.52 > 0.02 {
		t.Fatalf("baseline crossbar area = %.2f µm², want ~491.52", base)
	}
	if math.Abs(inca-49.152)/49.152 > 0.03 {
		t.Fatalf("INCA 3D array area = %.2f µm², want ~49.152", inca)
	}
}

// TestTableVAreaTotals checks the area breakdown reproduces Table V:
// baseline ≈ 84.1 mm², INCA ≈ 47.9 mm² (±3%).
func TestTableVAreaTotals(t *testing.T) {
	base := Baseline().Area()
	inca := INCA().Area()
	if math.Abs(base.Total()-84.088)/84.088 > 0.03 {
		t.Fatalf("baseline area = %.3f mm², want ~84.088", base.Total())
	}
	if math.Abs(inca.Total()-47.914)/47.914 > 0.03 {
		t.Fatalf("INCA area = %.3f mm², want ~47.914", inca.Total())
	}
	// Component-level shape: INCA saves most in ADC and array.
	if inca.ADC >= base.ADC/5 {
		t.Fatalf("INCA ADC area %.3f should be >5x smaller than baseline %.3f", inca.ADC, base.ADC)
	}
	if inca.Array >= base.Array/8 {
		t.Fatalf("INCA array area %.3f should be ~10x smaller than baseline %.3f", inca.Array, base.Array)
	}
	// INCA pays 2x in DACs (256 vs 128 drivers per subarray).
	if math.Abs(inca.DAC/base.DAC-2) > 0.01 {
		t.Fatalf("DAC ratio = %v, want 2", inca.DAC/base.DAC)
	}
	// Buffers and post-processing are identical by construction.
	if inca.Buffer != base.Buffer || inca.PostProcessing != base.PostProcessing {
		t.Fatal("shared components should have identical area")
	}
}

func TestADCCount(t *testing.T) {
	inca := INCA()
	if got := inca.ADCCount(); got != 16128/16 {
		t.Fatalf("INCA ADCCount = %d, want %d", got, 16128/16)
	}
	base := Baseline()
	if got := base.ADCCount(); got != 16128 {
		t.Fatalf("baseline ADCCount = %d, want 16128", got)
	}
}

func TestDACsPerSubarray(t *testing.T) {
	inca, base := INCA(), Baseline()
	if got := inca.DACsPerSubarray(); got != 256 {
		t.Fatalf("INCA DACs = %d, want 256", got)
	}
	if got := base.DACsPerSubarray(); got != 128 {
		t.Fatalf("baseline DACs = %d, want 128", got)
	}
}

func TestDataflowString(t *testing.T) {
	if WeightStationary.String() != "WS" || InputStationary.String() != "IS" {
		t.Fatal("dataflow names mismatch")
	}
}

func TestValidateCatchesBadConfig(t *testing.T) {
	c := INCA()
	c.SubarrayRows = 0
	if c.Validate() == nil {
		t.Fatal("accepted zero rows")
	}
	c = INCA()
	c.BatchSize = 0
	if c.Validate() == nil {
		t.Fatal("accepted zero batch")
	}
	c = INCA()
	c.Device.ROff = 1
	if c.Validate() == nil {
		t.Fatal("accepted bad device")
	}
	// The simulators divide by CellBits, WeightBits/CellBits and
	// SubarraysPerADC, so each must be rejected before it reaches them.
	for _, base := range []Config{INCA(), Baseline(), OutStationary()} {
		for _, bits := range []int{-1, 0, base.WeightBits + 1} {
			c = base
			c.CellBits = bits
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "arch: invalid cell bits") {
				t.Errorf("%s: CellBits %d: err = %v, want invalid cell bits", base.Name, bits, err)
			}
		}
		c = base
		c.SubarraysPerADC = 0
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "arch: invalid ADC sharing") {
			t.Errorf("%s: SubarraysPerADC 0: err = %v, want invalid ADC sharing", base.Name, err)
		}
		c = base
		c.CellBits = c.WeightBits
		if err := c.Validate(); err != nil {
			t.Errorf("%s: CellBits = WeightBits rejected: %v", base.Name, err)
		}
	}
}
