//go:build amd64 && !amd64.v3

// The Go spec lets a compiler fuse x*y + z into one rounding; amd64 at
// GOAMD64 v1/v2 never does, so the fingerprint below is exact there. On
// targets that fuse (arm64, ppc64, s390x, amd64.v3) the last bits of every
// product differ, and with them the fingerprint.

package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/tensor"
)

// trainingBitsGolden is the FNV-1a fingerprint of every weight bit that
// trainingBitsRun produces. It was recorded before the training kernels
// were rewritten around a stationary operand, and pins that every rewrite
// since sums exactly the same IEEE terms in the same order. Never
// re-record it to make a kernel change pass.
const trainingBitsGolden uint64 = 0x96ab25e26ce1e19d

// trainingBitsRun pretrains a SmallCNN for two epochs, then fine-tunes one
// clone per noise target for one epoch with an 8-step write interval, and
// fingerprints the pretrained weights followed by each fine-tuned net's.
func trainingBitsRun() uint64 {
	cfg := data.DefaultConfig()
	cfg.PerClass = 8
	trainSet, _ := data.Generate(cfg).Split(0.25)
	base := SmallCNN(rand.New(rand.NewSource(7)), 1, cfg.H, cfg.W, cfg.Classes)
	(&Trainer{Net: base, LR: 0.02}).Train(trainSet, 2)

	h := fnv.New64a()
	fingerprint := func(n *Network) {
		var buf [8]byte
		add := func(t *tensor.Tensor) {
			for _, v := range t.Data() {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		for _, l := range n.Layers {
			switch t := l.(type) {
			case *Conv:
				add(t.W)
			case *FC:
				add(t.W)
				add(t.B)
			}
		}
	}
	fingerprint(base)
	for i, target := range []NoiseTarget{NoiseNone, NoiseWeights, NoiseActivations} {
		net := base.Clone()
		tr := &Trainer{Net: net, LR: 0.02, Target: target, Sigma: 0.05,
			Seed: 911 + int64(i), WriteInterval: 8}
		tr.Train(trainSet, 1)
		fingerprint(net)
	}
	return h.Sum64()
}

// TestTrainingBitsGolden pins every weight bit of a short pretrain plus
// one fine-tune per noise target, at every kernel worker budget.
func TestTrainingBitsGolden(t *testing.T) {
	for _, budget := range []int{1, 0} {
		prev := tensor.SetParallelism(budget)
		got := trainingBitsRun()
		tensor.SetParallelism(prev)
		if got != trainingBitsGolden {
			t.Fatalf("budget %d: training fingerprint %#016x, want %#016x", budget, got, trainingBitsGolden)
		}
	}
}
