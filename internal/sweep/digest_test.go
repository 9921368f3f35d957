package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// reportDigest is the SHA-256 TestReportDigest expects over every
// report of the design-point grid below. It pins each bit the
// simulators produce: a change that reorders one floating-point
// addition, or drops one count, moves it.
const reportDigest = "d881dc9d60b76f05cf7bd6cb895ed68e26ebb92fac712ec77524f2439602cc56"

// digestGrid holds the override values TestReportDigest crosses: array
// size (square subarrays), stacked planes, ADC bits and batch size. A
// 0 keeps the backend's base value.
var digestGrid = [4][]int{
	{0, 16, 64, 256},
	{0, 1, 8, 128},
	{0, 3, 6, 10},
	{0, 1, 17, 512},
}

// TestReportDigest hashes every report of every backend over the
// array × planes × ADC × batch grid, the whole zoo and both phases:
// each report's body bytes, then its utilization and total energy. A
// Fixed backend ignores the overrides and repeats its base report, as
// it does in a Plan. Simulate errors (the output-stationary backend
// has no training) are hashed as lines of their own.
func TestReportDigest(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()
	var body []byte
	for _, id := range []string{"is", "ws", "os", "gpu"} {
		a, err := DataflowArch(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, array := range digestGrid[0] {
			for _, planes := range digestGrid[1] {
				for _, adc := range digestGrid[2] {
					for _, batch := range digestGrid[3] {
						cfg := a.Base
						if !a.Fixed {
							if array > 0 {
								cfg.SubarrayRows, cfg.SubarrayCols = array, array
							}
							if planes > 0 {
								cfg.StackedPlanes = planes
							}
							if adc > 0 {
								cfg.ADCBits = adc
							}
							if batch > 0 {
								cfg.BatchSize = batch
							}
						}
						s, err := a.Build(cfg)
						if err != nil {
							t.Fatalf("%s %+v: %v", id, cfg, err)
						}
						for _, net := range nn.Zoo() {
							for _, ph := range []sim.Phase{sim.Inference, sim.Training} {
								rep, err := s.Simulate(ctx, net, ph)
								if err != nil {
									fmt.Fprintf(h, "%s %s %v err %v\n", id, net.Name, ph, err)
									continue
								}
								if body, err = rep.AppendBody(body[:0]); err != nil {
									t.Fatal(err)
								}
								h.Write(body)
								fmt.Fprintf(h, "%v|%v\n", rep.Utilization(), rep.Total.Energy.Total())
							}
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != reportDigest {
		t.Fatalf("report digest = %s, want %s: a simulator's output moved", got, reportDigest)
	}
}
