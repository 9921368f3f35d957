package sim_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteCSVGolden pins the CSV contract downstream tooling parses:
// the exact header and the exact TOTAL row for a reference cell
// (INCA × LeNet5 × inference). The analytical model is deterministic,
// so any drift in either line is a deliberate format or model change —
// regenerate with `go test ./internal/sim -run Golden -update`.
func TestWriteCSVGolden(t *testing.T) {
	sm := sim.Wrap(core.New(arch.INCA()), "is")
	rep, err := sm.Simulate(context.Background(), nn.LeNet5(), sim.Inference)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv too short: %q", buf.String())
	}
	got := lines[0] + "\n" + lines[len(lines)-1] + "\n" // header + TOTAL row

	golden := filepath.Join("testdata", "csv_lenet5_inca.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("CSV header/TOTAL drifted from golden:\n got: %s\nwant: %s", got, want)
	}

	if !strings.HasPrefix(lines[len(lines)-1], "TOTAL,-,") {
		t.Errorf("last row is not the TOTAL row: %s", lines[len(lines)-1])
	}
}
