package train

import (
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/data"
)

// benchSink keeps the compiler from discarding a benchmarked trial.
var benchSink float64

// BenchmarkNoiseTrial mirrors one operation of the repository benchmark's
// noise-train workload: fine-tune a weight-noise and an activation-noise
// copy of a pretrained SmallCNN over one 8-step write interval of
// per-sample SGD at σ = 0.05, each ending in its device write.
func BenchmarkNoiseTrial(b *testing.B) {
	cfg := data.DefaultConfig()
	trainSet, _ := data.Generate(cfg).Split(0.25)
	base := SmallCNN(rand.New(rand.NewSource(1)), 1, cfg.H, cfg.W, cfg.Classes)
	(&Trainer{Net: base, LR: 0.02}).Train(trainSet, 4)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window := &data.Dataset{Classes: trainSet.Classes, H: trainSet.H, W: trainSet.W}
		for k := 0; k < 8; k++ {
			window.Samples = append(window.Samples, trainSet.Samples[rng.Intn(len(trainSet.Samples))])
		}
		for _, target := range []NoiseTarget{NoiseWeights, NoiseActivations} {
			tr := &Trainer{Net: base.Clone(), LR: 0.02, Target: target, Sigma: 0.05,
				Seed: rng.Int63(), WriteInterval: 8}
			benchSink = tr.Train(window, 1)
		}
	}
}
