package insitu

import (
	"fmt"

	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
)

// ForwardBatch runs a whole batch through the arrays the 3D way: each
// convolution executes once with the batch spread across the stacked
// planes and the kernels broadcast over the shared pillars (§IV.B), while
// the digital pooling/activation units process each image's map.
func (m *Machine) ForwardBatch(net *train.Network, xs []*tensor.Tensor) []*tensor.Tensor {
	outs, _ := m.forwardBatch(net, xs)
	return outs
}

// forwardBatch also returns each layer's per-image inputs for the
// backward pass.
func (m *Machine) forwardBatch(net *train.Network, xs []*tensor.Tensor) ([]*tensor.Tensor, [][]*tensor.Tensor) {
	cur := append([]*tensor.Tensor(nil), xs...)
	inputs := make([][]*tensor.Tensor, len(net.Layers))
	for i, l := range net.Layers {
		inputs[i] = append([]*tensor.Tensor(nil), cur...)
		switch t := l.(type) {
		case *train.Conv:
			// One batch-parallel sweep over the 3D stacks.
			quantized := make([]*tensor.Tensor, len(cur))
			for p := range cur {
				quantized[p] = m.quantA(cur[p])
			}
			w := m.quantW(t.W)
			k := float64(w.Dim(2))
			bound := 0.0
			if m.opt.ADCBits > 0 {
				bound = 4 * k * cur[0].RMS() * w.RMS()
			}
			outs, stats := core.FunctionalConv2D(quantized, w,
				m.funcOpts(t.Spec.Stride, t.Spec.Pad, bound))
			m.stats = m.stats.Plus(stats)
			cur = outs
		case *train.FC:
			for p := range cur {
				cur[p] = m.fcOnArrays(cur[p].Reshape(cur[p].Len()), t.W, t.B)
			}
		case *train.ReLU:
			for p := range cur {
				cur[p] = tensor.ReLU(cur[p])
			}
		case *train.MaxPool:
			for p := range cur {
				cur[p] = tensor.MaxPool2D(cur[p], t.K, t.K).Out
			}
		default:
			panic(fmt.Sprintf("insitu: unsupported layer %T", l))
		}
	}
	return cur, inputs
}

// TrainStepBatch runs one batch-parallel in-situ training step: a single
// 3D forward sweep, per-image error propagation with the batch's deltas
// again swept through the shared transposed kernels, gradient accumulation
// on the resident activations, and one mean-gradient SGD update written to
// the buffer-resident weights (the batch granularity PipeLayer-style WS
// must emulate image by image). It returns the mean loss.
func (m *Machine) TrainStepBatch(net *train.Network, xs []*tensor.Tensor, labels []int, lr float64) float64 {
	if len(xs) != len(labels) || len(xs) == 0 {
		panic("insitu: batch images and labels must match and be non-empty")
	}
	b := len(xs)
	outs, inputs := m.forwardBatch(net, xs)

	deltas := make([]*tensor.Tensor, b)
	totalLoss := 0.0
	for p := range outs {
		loss, d := train.SoftmaxCrossEntropy(outs[p], labels[p])
		totalLoss += loss
		deltas[p] = d
	}

	scale := 1.0 / float64(b)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		switch t := net.Layers[i].(type) {
		case *train.FC:
			dW := tensor.New(t.W.Dims()...)
			dB := tensor.New(t.B.Dims()...)
			w := m.quantW(t.W)
			for p := range deltas {
				xin := inputs[i][p].Reshape(inputs[i][p].Len())
				dW.AddInPlace(tensor.Outer(deltas[p], xin))
				dB.AddInPlace(deltas[p])
				deltas[p] = tensor.MatVecT(w, deltas[p]).Reshape(inputs[i][p].Dims()...)
			}
			t.W.AXPYInPlace(-lr*scale, dW)
			t.B.AXPYInPlace(-lr*scale, dB)
		case *train.ReLU:
			for p := range deltas {
				deltas[p] = tensor.ReLUBackward(inputs[i][p], deltas[p])
			}
		case *train.MaxPool:
			for p := range deltas {
				res := tensor.MaxPool2D(inputs[i][p], t.K, t.K)
				deltas[p] = tensor.MaxPoolBackward(res, deltas[p], inputs[i][p].Dims())
			}
		case *train.Conv:
			dW := tensor.New(t.W.Dims()...)
			newDeltas := make([]*tensor.Tensor, b)
			for p := range deltas {
				dW.AddInPlace(m.gradOnArrays(inputs[i][p], deltas[p], t.Spec,
					t.W.Dim(2), t.W.Dim(3), t.W.Dim(0)))
			}
			// Error propagation for the whole batch in one 3D sweep over
			// the transposed kernels.
			newDeltas = m.backInputBatch(t.W, deltas, t.Spec,
				inputs[i][0].Dim(1), inputs[i][0].Dim(2))
			t.W.AXPYInPlace(-lr*scale, dW)
			deltas = newDeltas
		}
	}
	return totalLoss / float64(b)
}

// backInputBatch computes each image's dX as the full convolution of its
// dilated error map, padded by the kernel size less one on each axis,
// with the 180°-rotated transposed kernels, cropped at the layer's
// padding. All images' error maps occupy the planes of one stack, having
// overwritten the activation cells, and the kernels stream once for the
// whole batch.
func (m *Machine) backInputBatch(w *tensor.Tensor, deltas []*tensor.Tensor, spec tensor.ConvSpec, inH, inW int) []*tensor.Tensor {
	kh, kw := w.Dim(2), w.Dim(3)
	wt := tensor.Rot180(w) // [C, N, KH, KW]
	padded := make([]*tensor.Tensor, len(deltas))
	for p := range deltas {
		padded[p] = tensor.Pad(tensor.Dilate(deltas[p], spec.Stride), kh-1, kw-1)
	}
	outs, stats := core.FunctionalConv2D(padded, wt,
		core.FuncOptions{Stride: 1, Noise: m.opt.ActNoise})
	m.stats = m.stats.Plus(stats)

	c := wt.Dim(0)
	result := make([]*tensor.Tensor, len(deltas))
	for p, full := range outs {
		dx := tensor.New(c, inH, inW)
		fh, fw := full.Dim(1), full.Dim(2)
		for ic := 0; ic < c; ic++ {
			for y := 0; y < inH && y+spec.Pad < fh; y++ {
				for x := 0; x < inW && x+spec.Pad < fw; x++ {
					dx.Set(full.At(ic, y+spec.Pad, x+spec.Pad), ic, y, x)
				}
			}
		}
		result[p] = dx
	}
	return result
}
