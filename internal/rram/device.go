// Package rram models the resistive-RAM substrate of the INCA
// reproduction, from single cells up to the paper's two array organizations:
//
//   - the conventional 1T1R 2D crossbar used by weight-stationary (WS)
//     designs (ISAAC-class), which computes matrix-vector products by
//     column-wise current summation, and
//   - INCA's 2T1R direct-convolution vertical plane (paper §IV.A), where
//     two perpendicular transistor gates select an arbitrary kernel window
//     over a stored feature map, and the 3D horizontally-stacked
//     organization of those planes (paper §IV.B) whose shared pillars
//     broadcast one kernel to every plane of a batch.
//
// The models are functional — real numbers flow through them and the
// results are checked against the tensor reference — and every operation
// also reports the event counts the analytical simulators charge for.
package rram

import (
	"fmt"
	"math"
)

// Device carries the circuit-level cell parameters of Table II and derives
// per-event energies and latencies from them.
type Device struct {
	ROn  float64 // ohms, low-resistance state (240 kΩ)
	ROff float64 // ohms, high-resistance state (24 MΩ)

	ReadVoltage  float64 // V (0.5)
	WriteVoltage float64 // V (1.1)
	ReadPulse    float64 // s (10 ns)
	WritePulse   float64 // s (50 ns)

	OnCellPower  float64 // W dissipated by an on (low-R) cell under read (1.03 µW)
	OffCellPower float64 // W dissipated by an off cell under read (10.42 nW)

	// Name identifies the device technology.
	Name string
	// Endurance is the write-cycle budget a cell survives (0 = unknown /
	// unlimited). RRAM endurance is the §VI future-work concern; the
	// alternative candidates below let the IS dataflow be evaluated on
	// "more stable properties of other hardware".
	Endurance float64
}

// DefaultDevice returns the Table II circuit configuration: a
// TaOx/HfOx-class RRAM with ~1e9 write cycles (extrinsic doping pushes
// this 50× further per Kempen et al. [25]).
func DefaultDevice() Device {
	return Device{
		Name:         "RRAM (TaOx/HfOx)",
		ROn:          240e3,
		ROff:         24e6,
		ReadVoltage:  0.5,
		WriteVoltage: 1.1,
		ReadPulse:    10e-9,
		WritePulse:   50e-9,
		OnCellPower:  1.03e-6,
		OffCellPower: 10.42e-9,
		Endurance:    1e9,
	}
}

// PCMDevice returns a phase-change-memory candidate: faster set/reset at
// higher write energy, similar endurance class.
func PCMDevice() Device {
	return Device{
		Name:         "PCM",
		ROn:          50e3,
		ROff:         5e6,
		ReadVoltage:  0.3,
		WriteVoltage: 1.8,
		ReadPulse:    20e-9,
		WritePulse:   100e-9,
		OnCellPower:  1.8e-6,
		OffCellPower: 18e-9,
		Endurance:    1e9,
	}
}

// FeFETDevice returns a ferroelectric-FET candidate: very low write
// energy (field-driven, no programming current) with ~1e10 cycles.
func FeFETDevice() Device {
	return Device{
		Name:         "FeFET",
		ROn:          500e3,
		ROff:         50e6,
		ReadVoltage:  0.4,
		WriteVoltage: 3.0,
		ReadPulse:    10e-9,
		WritePulse:   20e-9,
		OnCellPower:  0.32e-6,
		OffCellPower: 3.2e-9,
		Endurance:    1e10,
	}
}

// SRAMCell returns a volatile CMOS candidate: effectively unlimited
// endurance and fast, cheap writes, at a much larger cell footprint (the
// trade the paper's §VI points toward for "more stable properties").
func SRAMCell() Device {
	return Device{
		Name:         "SRAM (8T CIM)",
		ROn:          100e3,
		ROff:         10e9,
		ReadVoltage:  0.8,
		WriteVoltage: 0.9,
		ReadPulse:    1e-9,
		WritePulse:   1e-9,
		OnCellPower:  0.5e-6,
		OffCellPower: 0.05e-9,
		Endurance:    1e16,
	}
}

// ReadEnergyOn returns the energy of reading one on-state cell.
func (d *Device) ReadEnergyOn() float64 { return d.OnCellPower * d.ReadPulse }

// ReadEnergyOff returns the energy of reading one off-state cell.
func (d *Device) ReadEnergyOff() float64 { return d.OffCellPower * d.ReadPulse }

// ReadEnergyAvg returns the expected per-cell read energy assuming a
// uniform mix of on and off cells — the figure the analytical simulators
// charge per cell-read event.
func (d *Device) ReadEnergyAvg() float64 {
	return (d.ReadEnergyOn() + d.ReadEnergyOff()) / 2
}

// WriteEnergy returns the energy of one write pulse into a cell, estimated
// as V²/R_on × pulse width (worst case, cell driven to the low-resistance
// state).
func (d *Device) WriteEnergy() float64 {
	return d.WriteVoltage * d.WriteVoltage / d.ROn * d.WritePulse
}

// OnOffRatio returns R_off / R_on, the device's dynamic range.
func (d Device) OnOffRatio() float64 { return d.ROff / d.ROn }

// Conductance maps a normalized cell value in [0, 1] to a conductance in
// [1/ROff, 1/ROn]. Values outside [0,1] are clamped — a real cell cannot
// exceed its physical range.
func (d Device) Conductance(v float64) float64 {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	gOff := 1 / d.ROff
	gOn := 1 / d.ROn
	return gOff + v*(gOn-gOff)
}

// Value inverts Conductance, recovering the normalized stored value.
func (d Device) Value(g float64) float64 {
	gOff := 1 / d.ROff
	gOn := 1 / d.ROn
	v := (g - gOff) / (gOn - gOff)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Validate reports whether the device parameters are physically sensible.
func (d Device) Validate() error {
	if d.ROn <= 0 || d.ROff <= d.ROn {
		return fmt.Errorf("rram: need 0 < ROn < ROff, got %v, %v", d.ROn, d.ROff)
	}
	if d.ReadPulse <= 0 || d.WritePulse <= 0 {
		return fmt.Errorf("rram: pulses must be positive")
	}
	if d.ReadVoltage <= 0 || d.WriteVoltage <= d.ReadVoltage {
		return fmt.Errorf("rram: need 0 < read voltage < write voltage")
	}
	return nil
}

// Wear tracks per-cell write counts against a device endurance budget —
// the concern the paper's §VI ("Future Work for Endurance") raises for all
// trainable RRAM accelerators.
type Wear struct {
	writes    []int64
	Endurance int64 // writes a cell survives; 0 disables checking
	maxSeen   int64
}

// NewWear tracks cells number of cells with the given endurance budget.
func NewWear(cells int, endurance int64) *Wear {
	return &Wear{writes: make([]int64, cells), Endurance: endurance}
}

// RecordWrite notes one write to cell i and reports whether the cell is
// still within its endurance budget.
func (w *Wear) RecordWrite(i int) bool {
	w.writes[i]++
	if w.writes[i] > w.maxSeen {
		w.maxSeen = w.writes[i]
	}
	return w.Endurance == 0 || w.writes[i] <= w.Endurance
}

// MaxWrites returns the largest per-cell write count observed.
func (w *Wear) MaxWrites() int64 { return w.maxSeen }

// TotalWrites returns the total number of writes recorded.
func (w *Wear) TotalWrites() int64 {
	var s int64
	for _, v := range w.writes {
		s += v
	}
	return s
}

// RemainingFraction returns how much of the endurance budget the most-worn
// cell has left (1 when tracking is disabled).
func (w *Wear) RemainingFraction() float64 {
	if w.Endurance == 0 {
		return 1
	}
	return math.Max(0, 1-float64(w.maxSeen)/float64(w.Endurance))
}
