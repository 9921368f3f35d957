package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnergyAddAndTotal(t *testing.T) {
	var e Energy
	e.Add(DRAM, 2e-9)
	e.Add(Buffer, 3e-9)
	e.Add(DRAM, 1e-9)
	if got := e.Of(DRAM); math.Abs(got-3e-9) > 1e-20 {
		t.Fatalf("Of(DRAM) = %v, want 3e-9", got)
	}
	if got := e.Total(); math.Abs(got-6e-9) > 1e-20 {
		t.Fatalf("Total = %v, want 6e-9", got)
	}
}

func TestEnergyAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative energy")
		}
	}()
	var e Energy
	e.Add(ADC, -1)
}

func TestEnergyPlusAndScale(t *testing.T) {
	var a, b Result
	a.Energy.Add(ADC, 1)
	b.Energy.Add(ADC, 2)
	b.Energy.Add(DAC, 4)
	a.Add(&b)
	if a.Energy.Of(ADC) != 3 || a.Energy.Of(DAC) != 4 {
		t.Fatalf("Add = %+v", a.Energy)
	}
	a.Scale(0.5)
	if a.Energy.Of(ADC) != 1.5 || a.Energy.Of(DAC) != 2 {
		t.Fatalf("Scale = %+v", a.Energy)
	}
	if b.Energy.Of(ADC) != 2 || b.Energy.Of(DAC) != 4 {
		t.Fatalf("Add changed its argument: %+v", b.Energy)
	}
}

func TestEnergyShare(t *testing.T) {
	var e Energy
	e.Add(DRAM, 3)
	e.Add(Buffer, 1)
	if got := e.Share(DRAM); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Share(DRAM) = %v, want 0.75", got)
	}
	var empty Energy
	if empty.Share(DRAM) != 0 {
		t.Fatal("Share on empty energy should be 0")
	}
}

func TestEnergyString(t *testing.T) {
	var e Energy
	e.Add(DRAM, 1e-3)
	s := e.String()
	if !strings.Contains(s, "DRAM") || !strings.Contains(s, "mJ") {
		t.Fatalf("String = %q", s)
	}
}

func TestCountsPlus(t *testing.T) {
	a := Result{Counts: Counts{RRAMReads: 1, ADCConversions: 2, DRAMAccesses: 5}}
	b := Result{Counts: Counts{RRAMReads: 10, BufferAccesses: 3}}
	a.Add(&b)
	if s := a.Counts; s.RRAMReads != 11 || s.ADCConversions != 2 || s.BufferAccesses != 3 || s.DRAMAccesses != 5 {
		t.Fatalf("Add = %+v", s)
	}
	// Scaled counts truncate toward zero, one conversion each.
	a.Scale(0.5)
	if s := a.Counts; s.RRAMReads != 5 || s.ADCConversions != 1 || s.BufferAccesses != 1 || s.DRAMAccesses != 2 {
		t.Fatalf("Scale = %+v", s)
	}
}

func TestResultComparisons(t *testing.T) {
	var fast, slow Result
	fast.Latency = 1
	slow.Latency = 10
	fast.Energy.Add(ADC, 1)
	slow.Energy.Add(ADC, 20)
	if got := fast.SpeedupVs(slow); got != 10 {
		t.Fatalf("SpeedupVs = %v, want 10", got)
	}
	if got := fast.EnergyEfficiencyVs(slow); got != 20 {
		t.Fatalf("EnergyEfficiencyVs = %v, want 20", got)
	}
	var zero Result
	if !math.IsInf(zero.SpeedupVs(slow), 1) {
		t.Fatal("zero-latency speedup should be +Inf")
	}
}

func TestResultPlus(t *testing.T) {
	var a, b Result
	a.Latency = 1
	b.Latency = 2
	a.Energy.Add(DRAM, 5)
	b.Energy.Add(DRAM, 7)
	a.Counts.RRAMWrites = 3
	b.Counts.RRAMWrites = 4
	a.Add(&b)
	if a.Latency != 3 || a.Energy.Of(DRAM) != 12 || a.Counts.RRAMWrites != 7 {
		t.Fatalf("Result.Add = %+v", a)
	}
	a.Scale(2.5)
	if a.Latency != 7.5 || a.Energy.Of(DRAM) != 30 || a.Counts.RRAMWrites != 17 {
		t.Fatalf("Result.Scale = %+v", a)
	}
}

func TestAreaTotal(t *testing.T) {
	a := Area{Buffer: 1, Array: 2, ADC: 3, DAC: 4, PostProcessing: 5, Others: 6}
	if a.Total() != 21 {
		t.Fatalf("Area.Total = %v, want 21", a.Total())
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		j    float64
		want string
	}{
		{2.5, "J"}, {2.5e-3, "mJ"}, {2.5e-6, "uJ"}, {2.5e-9, "nJ"}, {2.5e-12, "pJ"}, {0, "0 J"},
	}
	for _, c := range cases {
		if got := FormatEnergy(c.j); !strings.Contains(got, c.want) {
			t.Errorf("FormatEnergy(%v) = %q, want contains %q", c.j, got, c.want)
		}
	}
	if got := FormatTime(1.5e-6); !strings.Contains(got, "us") {
		t.Errorf("FormatTime = %q", got)
	}
	if got := FormatTime(0); got != "0 s" {
		t.Errorf("FormatTime(0) = %q", got)
	}
}

func TestComponentString(t *testing.T) {
	for _, c := range Components() {
		if c.String() == "" || strings.HasPrefix(c.String(), "Component(") {
			t.Errorf("component %d missing display name", int(c))
		}
	}
}

// PROPERTY: Add is commutative and Total is additive.
func TestPropertyEnergyAdditive(t *testing.T) {
	f := func(a1, a2, b1, b2 uint16) bool {
		var a, b Result
		a.Energy.Add(DRAM, float64(a1))
		a.Energy.Add(ADC, float64(a2))
		b.Energy.Add(DRAM, float64(b1))
		b.Energy.Add(Digital, float64(b2))
		ab, ba := a, b
		ab.Add(&b)
		ba.Add(&a)
		if ab != ba {
			return false
		}
		return math.Abs(ab.Energy.Total()-(a.Energy.Total()+b.Energy.Total())) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// PROPERTY: shares always sum to 1 for non-empty tallies.
func TestPropertySharesSumToOne(t *testing.T) {
	f := func(vals [6]uint8) bool {
		var e Energy
		nonzero := false
		for i, v := range vals {
			if v > 0 {
				e.Add(Component(i), float64(v))
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		sum := 0.0
		for _, c := range Components() {
			sum += e.Share(c)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
