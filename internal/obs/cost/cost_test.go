package cost

import (
	"context"
	"encoding/json"
	"testing"
)

// TestNilTallyIsInert pins the charging contract: every charge method
// tolerates a nil receiver, so callers charge unconditionally on
// contexts that never saw NewContext.
func TestNilTallyIsInert(t *testing.T) {
	var nilTally *Tally
	nilTally.AddCells(Cell(true, false, 3, 1, 2))
	nilTally.CoalescedHit()
	if s := nilTally.Snapshot(); s != (Summary{}) {
		t.Fatalf("nil tally snapshot = %+v, want zero", s)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on a bare context = %v, want nil", got)
	}
}

// TestTallyAccounting pins the cell arithmetic: cached and failed cells
// partition out of the total, retries are attempts beyond each cell's
// first, and failed cells contribute no energy.
func TestTallyAccounting(t *testing.T) {
	ctx, tally := NewContext(context.Background())
	if FromContext(ctx) != tally {
		t.Fatal("context does not round-trip its tally")
	}
	tally.AddCells(Cell(false, false, 1, 10, 0.5)) // clean cell
	tally.AddCells(Cell(true, false, 1, 20, 1.0))  // cached cell
	tally.AddCells(Cell(false, true, 3, 99, 99))   // failed after 3 attempts
	tally.CoalescedHit()

	s := tally.Snapshot()
	if s.Cells != 3 || s.CachedCells != 1 || s.FailedCells != 1 {
		t.Fatalf("cells=%d cached=%d failed=%d", s.Cells, s.CachedCells, s.FailedCells)
	}
	if s.Attempts != 5 || s.Retries != 2 {
		t.Fatalf("attempts=%d retries=%d, want 5/2", s.Attempts, s.Retries)
	}
	if s.SimEnergyJ != 30 || s.SimLatencyS != 1.5 {
		t.Fatalf("energy=%g latency=%g: failed cell leaked into sim totals", s.SimEnergyJ, s.SimLatencyS)
	}
	if s.CoalescedHits != 1 {
		t.Fatalf("coalesced hits = %d, want 1", s.CoalescedHits)
	}
	if s.WallS <= 0 {
		t.Fatalf("wall=%g, want > 0", s.WallS)
	}

	// Snapshot is re-measurable: counters hold, the wall clock advances.
	s2 := tally.Snapshot()
	if s2.Cells != s.Cells || s2.WallS < s.WallS {
		t.Fatalf("second snapshot regressed: %+v vs %+v", s2, s)
	}
}

// TestSummaryAdd pins that summaries are plain sums — the invariant the
// /v1/usage totals depend on.
func TestSummaryAdd(t *testing.T) {
	a := Summary{WallS: 1, CellCounts: CellCounts{Cells: 2, Attempts: 3, SimEnergyJ: 4}, CoalescedHits: 5}
	b := Summary{WallS: 10, CellCounts: CellCounts{Cells: 20, Attempts: 30, SimEnergyJ: 40}, CoalescedHits: 50}
	a.Add(b)
	if a.WallS != 11 || a.Cells != 22 || a.Attempts != 33 || a.SimEnergyJ != 44 || a.CoalescedHits != 55 {
		t.Fatalf("sum = %+v", a)
	}
}

// TestSummaryJSONShape pins the wire field names the spliced "cost"
// block and the usage endpoint serve: exactly these keys, none of them
// a process-wide figure.
func TestSummaryJSONShape(t *testing.T) {
	b, err := json.Marshal(Summary{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"wall_s", "cells", "cached_cells", "failed_cells", "attempts",
		"retries", "coalesced_hits", "sim_energy_j", "sim_latency_s",
	}
	for _, key := range want {
		if _, ok := m[key]; !ok {
			t.Errorf("summary JSON missing %q: %s", key, b)
		}
	}
	if len(m) != len(want) {
		t.Errorf("summary JSON has %d keys, want exactly %v: %s", len(m), want, b)
	}
}
