package sweep

import (
	"context"
	"strconv"
	"testing"
	"unsafe"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// TestRunCellsInputOrder runs an explicit cell subset with sparse,
// shuffled Seq values — the shape a cluster shard receives — and asserts
// results come back in input order with Seq untouched, byte-identical to
// the same cells evaluated through a full plan run.
func TestRunCellsInputOrder(t *testing.T) {
	ctx := context.Background()
	plan := Plan{
		Archs:    []Arch{INCAArch(), BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
	full, err := Run(ctx, plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := plan.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// A shard-like subset: every other cell, reversed, so neither Seq nor
	// plan order matches slice position.
	var subset []Cell
	for i := len(cells) - 1; i >= 0; i -= 2 {
		subset = append(subset, cells[i])
	}
	results, err := RunCells(ctx, subset, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(subset) {
		t.Fatalf("results = %d, want %d", len(results), len(subset))
	}
	for i, r := range results {
		want := subset[i]
		if r.Cell.Seq != want.Seq || r.Cell.Key() != want.Key() {
			t.Fatalf("result %d is cell %s (seq %d), want %s (seq %d)",
				i, r.Cell.Key(), r.Cell.Seq, want.Key(), want.Seq)
		}
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", want.Key(), r.Err)
		}
		ref := full[want.Seq]
		if got, wantRep := r.Report.Total.Energy.Total(), ref.Report.Total.Energy.Total(); got != wantRep {
			t.Fatalf("cell %s energy %v differs from plan run %v", want.Key(), got, wantRep)
		}
	}
}

// TestRunCellsCancelled pins Run's context-error contract on the
// explicit-list path: an ended context surfaces as RunCells' error and
// every unexecuted cell carries it.
func TestRunCellsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells, err := PaperPlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCells(ctx, cells, Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("results = %d, want %d", len(results), len(cells))
	}
}

// TestPartitionByKey asserts the scatter invariants: every cell lands
// with exactly one owner, relative order within an owner is preserved,
// and equal keys share an owner.
func TestPartitionByKey(t *testing.T) {
	plan := Plan{
		Archs:    []Arch{INCAArch(), BaselineArch(), GPUArch()},
		Networks: []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()},
		Phases:   []sim.Phase{sim.Inference},
		// Two distinct overrides plus the GPU's Fixed collapse: duplicate
		// keys must co-locate.
		Overrides: []Override{
			{Name: "a", Apply: func(c arch.Config) arch.Config { return c }},
			{Name: "b", Apply: func(c arch.Config) arch.Config { c.BatchSize *= 2; return c }},
		},
	}
	cells, err := plan.Cells()
	if err != nil {
		t.Fatal(err)
	}
	owner := func(k string) string {
		// A deliberately lumpy assignment: keys route by first byte.
		if k[0] < 'I' {
			return "p0"
		}
		return "p1"
	}
	parts := Partition(cells, owner)
	total := 0
	seen := make(map[string]string)
	for peer, part := range parts {
		lastSeq := -1
		for _, c := range part {
			total++
			if c.Seq <= lastSeq {
				t.Fatalf("peer %s: cell order not preserved (seq %d after %d)", peer, c.Seq, lastSeq)
			}
			lastSeq = c.Seq
			if prev, ok := seen[c.Key()]; ok && prev != peer {
				t.Fatalf("key %s split across %s and %s", c.Key(), prev, peer)
			}
			seen[c.Key()] = peer
			if owner(c.Key()) != peer {
				t.Fatalf("cell %s on peer %s, owner says %s", c.Key(), peer, owner(c.Key()))
			}
		}
	}
	if total != len(cells) {
		t.Fatalf("partition covers %d cells, want %d", total, len(cells))
	}
}

// TestPlanCellsAllocs pins what compiling a plan costs: the same few
// allocations (the archs, the axes and the cells) whatever the number
// of archs and overrides, because each (arch, override) resolves into
// one shared axis rather than into every cell.
func TestPlanCellsAllocs(t *testing.T) {
	nets := []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()}
	phases := []sim.Phase{sim.Inference, sim.Training}
	var overrides []Override
	for b := 1; b <= 8; b++ {
		overrides = append(overrides, Override{Name: "batch=" + strconv.Itoa(b),
			Apply: func(c arch.Config) arch.Config { c.BatchSize = b; return c }})
	}
	small := Plan{Archs: []Arch{INCAArch()}, Networks: nets[:1], Phases: phases[:1]}
	large := Plan{
		Archs:     []Arch{INCAArch(), BaselineArch(), GPUArch(), OutStatArch()},
		Networks:  nets,
		Phases:    phases,
		Overrides: overrides,
	}
	count := func(p Plan) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Cells(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const want = 3
	if got := count(small); got != want {
		t.Errorf("a 1-cell plan compiles in %v allocations, want %d", got, want)
	}
	if got := count(large); got != want {
		t.Errorf("a 4-arch, 8-override plan compiles in %v allocations, want %d", got, want)
	}
}

// TestCellSize pins a cell to a few words: its axis carries the arch
// and the config, so a field that drags a config back into every cell
// (and every Result) fails here.
func TestCellSize(t *testing.T) {
	if size := unsafe.Sizeof(Cell{}); size > 64 {
		t.Fatalf("sweep.Cell is %d bytes, want at most 64", size)
	}
}
