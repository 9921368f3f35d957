// Package noc models the on-chip reduction and distribution network of a
// PIM accelerator: the adder tree that the paper's intra-layer mapping
// "naturally forms ... to accumulate the result from different input
// channels" (§IV.C), realized as an H-tree spanning subarray → macro →
// tile → chip levels, plus the matching broadcast path that distributes
// streamed operands downward.
//
// Wire length — and therefore per-hop energy and latency — roughly doubles
// per level in an H-tree floorplan; the model captures that geometric
// growth.
package noc

import "fmt"

// HTree is a reduction/distribution tree over the accelerator hierarchy.
type HTree struct {
	// Fanins lists the fan-in at each level from the leaves upward, e.g.
	// {8, 12, 168}: 8 subarrays per macro, 12 macros per tile, 168 tiles.
	Fanins []int
	// HopEnergy is the energy (J) of moving one operand across one hop at
	// each level.
	HopEnergy []float64
	// HopLatency is the wire+register latency (s) per hop at each level.
	HopLatency []float64
}

// Standard builds the tree for the Table II hierarchy (macroSize,
// tileSize, tiles) with 22 nm-class wire costs that double per level.
func Standard(macroSize, tileSize, tiles int) HTree {
	fanins := []int{macroSize, tileSize, tiles}
	baseE := 0.02e-12 // J per operand-hop at the macro level
	baseL := 0.05e-9  // s per hop at the macro level
	h := HTree{
		Fanins:     fanins,
		HopEnergy:  make([]float64, len(fanins)),
		HopLatency: make([]float64, len(fanins)),
	}
	for i := range fanins {
		scale := float64(int64(1) << i) // wire length doubles per level
		h.HopEnergy[i] = baseE * scale
		h.HopLatency[i] = baseL * scale
	}
	return h
}

// Validate checks structural sanity.
func (h HTree) Validate() error {
	if len(h.Fanins) == 0 {
		return fmt.Errorf("noc: empty tree")
	}
	if len(h.HopEnergy) != len(h.Fanins) || len(h.HopLatency) != len(h.Fanins) {
		return fmt.Errorf("noc: per-level costs must match fan-in levels")
	}
	for i, f := range h.Fanins {
		if f < 1 {
			return fmt.Errorf("noc: invalid fan-in %d at level %d", f, i)
		}
	}
	return nil
}

// Leaves returns the total leaf count.
func (h HTree) Leaves() int64 {
	n := int64(1)
	for _, f := range h.Fanins {
		n *= int64(f)
	}
	return n
}

// LevelsFor returns how many tree levels a reduction over `operands`
// leaves must climb before it fits within one node's fan-in.
func (h HTree) LevelsFor(operands int64) int {
	if operands <= 1 {
		return 0
	}
	capacity := int64(1)
	for lvl, f := range h.Fanins {
		capacity *= int64(f)
		if operands <= capacity {
			return lvl + 1
		}
	}
	return len(h.Fanins)
}

// ReduceCost returns the energy and latency of reducing `operands`
// partial sums into one value. Each level moves the surviving operands one
// hop and halves... more precisely divides them by the level fan-in; the
// latency is the sum of per-level hop latencies along the critical path.
func (h HTree) ReduceCost(operands int64) (energy, latency float64) {
	if operands <= 1 {
		return 0, 0
	}
	remaining := operands
	for lvl := 0; lvl < h.LevelsFor(operands); lvl++ {
		// Every remaining operand crosses one hop at this level.
		energy += float64(remaining) * h.HopEnergy[lvl]
		latency += h.HopLatency[lvl]
		f := int64(h.Fanins[lvl])
		remaining = (remaining + f - 1) / f
	}
	return energy, latency
}

// BroadcastCost returns the energy and latency of distributing one
// operand from the root to `targets` leaves (weight streaming in IS,
// input streaming in WS). Energy charges every branch actually driven.
func (h HTree) BroadcastCost(targets int64) (energy, latency float64) {
	if targets <= 0 {
		return 0, 0
	}
	levels := h.LevelsFor(targets)
	remaining := targets
	for lvl := 0; lvl < levels; lvl++ {
		energy += float64(remaining) * h.HopEnergy[lvl]
		latency += h.HopLatency[lvl]
		f := int64(h.Fanins[lvl])
		remaining = (remaining + f - 1) / f
	}
	return energy, latency
}
