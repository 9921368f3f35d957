// Package metrics defines the common accounting currency of the INCA
// reproduction: per-component energy, latency, raw event counts, and area.
// Both simulators (INCA and the WS baseline) and the GPU model emit these
// types, so every paper figure reduces to arithmetic over them.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Component identifies a hardware unit in the energy/area breakdown,
// matching the categories of the paper's Fig. 6 / Fig. 13b pie charts and
// Table V.
type Component int

// Breakdown components.
const (
	DRAM Component = iota
	Buffer
	RRAMArray
	ADC
	DAC
	Digital // adders, shift-accumulators, activation/pooling units
	numComponents
)

// Components lists all breakdown components in display order.
func Components() []Component {
	return []Component{DRAM, Buffer, RRAMArray, ADC, DAC, Digital}
}

// String returns the component's display name.
func (c Component) String() string {
	switch c {
	case DRAM:
		return "DRAM"
	case Buffer:
		return "Buffer"
	case RRAMArray:
		return "RRAM"
	case ADC:
		return "ADC"
	case DAC:
		return "DAC"
	case Digital:
		return "Digital"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Energy is a per-component energy tally in joules.
type Energy struct {
	byComponent [numComponents]float64
}

// Add deposits j joules against component c.
func (e *Energy) Add(c Component, j float64) {
	if j < 0 || math.IsNaN(j) {
		panic(fmt.Sprintf("metrics: invalid energy %v for %v", j, c))
	}
	e.byComponent[c] += j
}

// Of returns the energy charged to component c.
func (e Energy) Of(c Component) float64 { return e.byComponent[c] }

// Total returns the summed energy in joules.
func (e Energy) Total() float64 {
	t := 0.0
	for _, v := range e.byComponent {
		t += v
	}
	return t
}

// Share returns component c's fraction of the total (0 when empty).
func (e Energy) Share(c Component) float64 {
	t := e.Total()
	if t == 0 {
		return 0
	}
	return e.byComponent[c] / t
}

// String renders the breakdown compactly, e.g.
// "total 1.2mJ (DRAM 40.1%, Buffer 31.0%, ...)".
func (e Energy) String() string {
	var parts []string
	for _, c := range Components() {
		if e.byComponent[c] > 0 {
			parts = append(parts, fmt.Sprintf("%v %.1f%%", c, 100*e.Share(c)))
		}
	}
	return fmt.Sprintf("total %s (%s)", FormatEnergy(e.Total()), strings.Join(parts, ", "))
}

// Counts tallies raw hardware events; they are what the analytical
// simulators actually produce, with energy derived as counts × unit costs.
type Counts struct {
	RRAMReads      int64 // per-cell read events
	RRAMWrites     int64 // per-cell write events
	ADCConversions int64
	DACConversions int64
	BufferAccesses int64 // bus-width beats to/from on-chip buffers
	DRAMAccesses   int64 // bytes moved to/from DRAM
	DigitalOps     int64 // adder/shift/activation operations
}

// Result aggregates one simulated execution: energy, wall-clock latency,
// and the raw counts it was derived from.
type Result struct {
	Energy  Energy
	Latency float64 // seconds
	Counts  Counts
}

// Add accumulates o into r as if o executed after r: each field gains
// o's value in one addition, so a caller fixes the floating-point order
// by the order of its Add calls.
func (r *Result) Add(o *Result) {
	for i, v := range o.Energy.byComponent {
		r.Energy.byComponent[i] += v
	}
	r.Latency += o.Latency
	r.Counts.RRAMReads += o.Counts.RRAMReads
	r.Counts.RRAMWrites += o.Counts.RRAMWrites
	r.Counts.ADCConversions += o.Counts.ADCConversions
	r.Counts.DACConversions += o.Counts.DACConversions
	r.Counts.BufferAccesses += o.Counts.BufferAccesses
	r.Counts.DRAMAccesses += o.Counts.DRAMAccesses
	r.Counts.DigitalOps += o.Counts.DigitalOps
}

// Scale multiplies r's energy, latency and counts by f, as when one
// image's cost repeats f times; counts truncate toward zero.
func (r *Result) Scale(f float64) {
	for i := range r.Energy.byComponent {
		r.Energy.byComponent[i] *= f
	}
	r.Latency *= f
	c := &r.Counts
	for _, n := range [...]*int64{&c.RRAMReads, &c.RRAMWrites, &c.ADCConversions,
		&c.DACConversions, &c.BufferAccesses, &c.DRAMAccesses, &c.DigitalOps} {
		*n = int64(float64(*n) * f)
	}
}

// EnergyEfficiencyVs returns how many times more energy-efficient r is
// than the reference o (>1 means r is better).
func (r Result) EnergyEfficiencyVs(o Result) float64 {
	if r.Energy.Total() == 0 {
		return math.Inf(1)
	}
	return o.Energy.Total() / r.Energy.Total()
}

// SpeedupVs returns how many times faster r is than the reference o.
func (r Result) SpeedupVs(o Result) float64 {
	if r.Latency == 0 {
		return math.Inf(1)
	}
	return o.Latency / r.Latency
}

// Area is the Table V area breakdown in mm².
type Area struct {
	Buffer         float64
	Array          float64
	ADC            float64
	DAC            float64
	PostProcessing float64
	Others         float64
}

// Total returns the summed area.
func (a Area) Total() float64 {
	return a.Buffer + a.Array + a.ADC + a.DAC + a.PostProcessing + a.Others
}

// FormatEnergy renders joules with an adaptive SI prefix.
func FormatEnergy(j float64) string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3g J", j)
	case j >= 1e-3:
		return fmt.Sprintf("%.3g mJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3g uJ", j*1e6)
	case j >= 1e-9:
		return fmt.Sprintf("%.3g nJ", j*1e9)
	case j > 0:
		return fmt.Sprintf("%.3g pJ", j*1e12)
	default:
		return "0 J"
	}
}

// FormatTime renders seconds with an adaptive SI prefix.
func FormatTime(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3g s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3g ms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.3g us", s*1e6)
	case s > 0:
		return fmt.Sprintf("%.3g ns", s*1e9)
	default:
		return "0 s"
	}
}
