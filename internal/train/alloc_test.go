package train

import (
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/data"
)

// TestTrainStepAllocs holds the per-sample SGD step to zero allocations:
// once every layer owns its scratch, a 16-sample Train allocates exactly
// what an 8-sample one does, so all that is left is per-call set-up (the
// noise models).
func TestTrainStepAllocs(t *testing.T) {
	cfg := data.DefaultConfig()
	trainSet, _ := data.Generate(cfg).Split(0.25)
	base := SmallCNN(rand.New(rand.NewSource(1)), 1, cfg.H, cfg.W, cfg.Classes)
	window := func(k int) *data.Dataset {
		return &data.Dataset{Classes: trainSet.Classes, H: trainSet.H, W: trainSet.W,
			Samples: trainSet.Samples[:k]}
	}
	for _, target := range []NoiseTarget{NoiseNone, NoiseWeights, NoiseActivations} {
		tr := &Trainer{Net: base.Clone(), LR: 0.02, Target: target, Sigma: 0.05, Seed: 3, WriteInterval: 8}
		tr.Train(window(8), 1) // every layer takes its scratch
		allocs := func(k int) float64 {
			ds := window(k)
			return testing.AllocsPerRun(5, func() { tr.Train(ds, 1) })
		}
		if a8, a16 := allocs(8), allocs(16); a16 != a8 {
			t.Errorf("%s noise: a 16-sample Train makes %v allocations, an 8-sample one %v; want equal",
				target, a16, a8)
		}
	}
}
