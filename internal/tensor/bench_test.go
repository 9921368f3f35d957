package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchKernels runs the ResNet-50-shaped hot-path kernels once.
func benchSetup() (x, w, a, b *Tensor, spec ConvSpec) {
	rng := rand.New(rand.NewSource(1))
	spec = ConvSpec{Stride: 1, Pad: 1}
	x = Randn(rng, 1, 64, 28, 28)
	w = Randn(rng, 1, 64, 64, 3, 3)
	a = Randn(rng, 1, 64, 64*3*3)
	b = Randn(rng, 1, 64*3*3, 28*28)
	return
}

func benchAtBudget(bm *testing.B, budget int, f func()) {
	prev := SetParallelism(budget)
	defer SetParallelism(prev)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		f()
	}
}

func BenchmarkConv2DSerial(bm *testing.B) {
	x, w, _, _, spec := benchSetup()
	benchAtBudget(bm, 1, func() { Conv2D(x, w, spec) })
}

func BenchmarkConv2DParallel(bm *testing.B) {
	x, w, _, _, spec := benchSetup()
	benchAtBudget(bm, runtime.GOMAXPROCS(0), func() { Conv2D(x, w, spec) })
}

func BenchmarkMatMulSerial(bm *testing.B) {
	_, _, a, b, _ := benchSetup()
	benchAtBudget(bm, 1, func() { MatMul(a, b) })
}

func BenchmarkMatMulParallel(bm *testing.B) {
	_, _, a, b, _ := benchSetup()
	benchAtBudget(bm, runtime.GOMAXPROCS(0), func() { MatMul(a, b) })
}

// smallCNNLayers are the two convolution shapes of train.SmallCNN on the
// 16×16 synthetic dataset, the layers noise-train spends its time in.
var smallCNNLayers = []struct {
	name       string
	c, h, n, k int
}{
	{"1x16x16-8", 1, 16, 8, 3},
	{"8x7x7-16", 8, 7, 16, 3},
}

// benchSink keeps the compiler from discarding a benchmarked kernel call.
var benchSink *Tensor

// benchSmallCNN runs f on each SmallCNN layer shape at the default
// budget, with the layer's input, weights and output gradient. About a
// third of the gradient is zero, as after a ReLU.
func benchSmallCNN(b *testing.B, f func(x, w, delta *Tensor, spec ConvSpec) *Tensor) {
	for _, l := range smallCNNLayers {
		b.Run(l.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			spec := ConvSpec{Stride: 1}
			x := Randn(rng, 1, l.c, l.h, l.h)
			w := Randn(rng, 1, l.n, l.c, l.k, l.k)
			o := spec.OutSize(l.h, l.k)
			delta := Randn(rng, 1, l.n, o, o)
			for i := range delta.data {
				if i%3 == 0 {
					delta.data[i] = 0
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = f(x, w, delta, spec)
			}
		})
	}
}

func BenchmarkConv2D(b *testing.B) {
	benchSmallCNN(b, func(x, w, _ *Tensor, spec ConvSpec) *Tensor { return Conv2D(x, w, spec) })
}

func BenchmarkConvBackwardInput(b *testing.B) {
	benchSmallCNN(b, func(x, w, delta *Tensor, spec ConvSpec) *Tensor {
		return ConvBackwardInput(w, delta, spec, x.Dim(1), x.Dim(2))
	})
}

func BenchmarkConvBackwardWeights(b *testing.B) {
	benchSmallCNN(b, func(x, w, delta *Tensor, spec ConvSpec) *Tensor {
		return ConvBackwardWeights(x, delta, spec, w.Dim(2), w.Dim(3))
	})
}
