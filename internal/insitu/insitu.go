// Package insitu executes a trainable network end-to-end on the RRAM
// array models — the functional counterpart of the paper's §IV.C dataflow:
//
//   - Feedforward: every convolution runs as direct convolution on 2T1R
//     planes (activations resident, kernels streamed over the pillars);
//     FC layers run on channel-folded planes; pooling and activation run
//     in the digital post-processing units.
//   - Backpropagation: the error convolution δ_{l+1} * Wᵀ runs on planes
//     holding the (dilated, padded) errors, the computed errors overwrite
//     the layer's activation cells, ReLU gradients are AND gates, and
//     max-pooling restores positions via the recorded LUT.
//   - Weight update: the gradient convolution δ * x reads the activations
//     still resident in the planes, with the error map streamed as the
//     kernel (paper Fig. 4); updated weights are written back to ordinary
//     memory, never to RRAM.
//
// A batch spreads across the stacked planes of each 3D array (§IV.B), so
// one image is a batch of one: Forward and TrainStep run the batch path.
//
// Tests verify the in-situ gradients equal the software engine's and that
// a network trained entirely in situ learns the synthetic task.
package insitu

import (
	"fmt"
	"math"

	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/fixed"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
)

// Options configures the device effects of in-situ execution.
type Options struct {
	// WeightBits / ActivationBits quantize the streamed and stored
	// operands (0 disables — ideal arithmetic).
	WeightBits     int
	ActivationBits int
	// ADCBits quantizes every analog window read (0 disables). FullScale
	// calibrates the converter range relative to each read's operand
	// magnitudes.
	ADCBits int
	// ActNoise perturbs activations as they are written into the planes
	// (the IS nonideality location).
	ActNoise *rram.NoiseModel
	// TrackWear enables per-plane endurance accounting.
	TrackWear bool
	Endurance int64
}

// Machine executes train.Network topologies on the array models.
type Machine struct {
	opt       Options
	stats     rram.Stats
	maxWrites int64
}

// New builds an in-situ machine.
func New(opt Options) *Machine { return &Machine{opt: opt} }

// Stats returns the accumulated device event counts.
func (m *Machine) Stats() rram.Stats { return m.stats }

// MaxCellWrites returns the largest per-cell write count observed across
// all planes used so far (0 when wear tracking is off).
func (m *Machine) MaxCellWrites() int64 { return m.maxWrites }

// quantA rounds an activation tensor to the configured bit depth.
func (m *Machine) quantA(t *tensor.Tensor) *tensor.Tensor {
	if m.opt.ActivationBits <= 0 {
		return t
	}
	return fixed.QuantizeTensor(t, m.opt.ActivationBits)
}

// quantW rounds a weight tensor to the configured bit depth.
func (m *Machine) quantW(t *tensor.Tensor) *tensor.Tensor {
	if m.opt.WeightBits <= 0 {
		return t
	}
	return fixed.QuantizeTensor(t, m.opt.WeightBits)
}

// funcOpts builds the array-level options for a convolution whose
// per-window sums are bounded by bound.
func (m *Machine) funcOpts(stride, pad int, bound float64) core.FuncOptions {
	o := core.FuncOptions{Stride: stride, Pad: pad, Noise: m.opt.ActNoise}
	if m.opt.ADCBits > 0 && bound > 0 {
		o.Quantize = rram.UniformQuantizer(m.opt.ADCBits, bound)
	}
	return o
}

// load writes x [n, h, w] into one stack of n planes, plane i from the
// i-th h×w slice, with the machine's write noise and the converter q
// (nil for none). With wear set and TrackWear on, it counts the planes'
// writes into MaxCellWrites; only the folded FC planes set it, the
// planes whose endurance the machine reports.
func (m *Machine) load(x *tensor.Tensor, q func(float64) float64, wear bool) *rram.Stack {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	s := rram.NewStack(n, h, w)
	plane := tensor.New(h, w)
	wear = wear && m.opt.TrackWear
	for i, p := range s.Planes {
		if m.opt.ActNoise != nil {
			p.SetNoise(m.opt.ActNoise)
		}
		if wear {
			p.EnableWear(m.opt.Endurance)
		}
		p.SetQuantizer(q)
		copy(plane.Data(), x.Data()[i*h*w:])
		p.Write(plane)
		if wear {
			m.maxWrites = max(m.maxWrites, p.Wear().MaxWrites())
		}
	}
	return s
}

// fcOnArrays runs a fully connected layer on channel-folded planes: the
// input vector is folded into 16×16 planes and each output's weight chunk
// is applied as one whole-plane window read (§IV.C).
func (m *Machine) fcOnArrays(x, w, bias *tensor.Tensor) *tensor.Tensor {
	const side = 16
	const cells = side * side
	x = m.quantA(x)
	w = m.quantW(w)
	in := x.Len()
	groups := (in + cells - 1) / cells

	var q func(float64) float64
	if m.opt.ADCBits > 0 {
		// Typical whole-plane dot product: sqrt(cells)·σx·σw, covered to
		// four sigmas.
		if bound := 4 * math.Sqrt(float64(cells)) * x.RMS() * w.RMS(); bound > 0 {
			q = rram.UniformQuantizer(m.opt.ADCBits, bound)
		}
	}
	// Write the folded input once; every output reuses the planes.
	folded := tensor.New(groups, side, side)
	copy(folded.Data(), x.Data())
	planes := m.load(folded, q, true)

	out := tensor.New(w.Dim(0))
	kern := tensor.New(side, side)
	k := kern.Data()
	for o := range out.Data() {
		row := w.Data()[o*in : (o+1)*in]
		sum := 0.0
		for g, p := range planes.Planes {
			clear(k[copy(k, row[g*cells:]):])
			sum += p.ReadWindow(kern, 0, 0)
		}
		out.Set(sum+bias.At(o), o)
	}
	m.stats = m.stats.Plus(planes.Stats())
	return out
}

// Forward runs one inference of net on the array models, as a batch of
// one.
func (m *Machine) Forward(net *train.Network, x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardBatch(net, []*tensor.Tensor{x})[0]
}

// ForwardBatch runs a whole batch through the arrays the 3D way: each
// convolution executes once with the batch spread across the stacked
// planes and the kernels broadcast over the shared pillars (§IV.B), while
// the digital pooling/activation units process each image's map.
func (m *Machine) ForwardBatch(net *train.Network, xs []*tensor.Tensor) []*tensor.Tensor {
	outs, _ := m.forward(net, xs)
	return outs
}

// forward also returns each layer's per-image inputs for the backward
// pass.
func (m *Machine) forward(net *train.Network, xs []*tensor.Tensor) ([]*tensor.Tensor, [][]*tensor.Tensor) {
	cur := append([]*tensor.Tensor(nil), xs...)
	inputs := make([][]*tensor.Tensor, len(net.Layers))
	for i, l := range net.Layers {
		inputs[i] = append([]*tensor.Tensor(nil), cur...)
		switch t := l.(type) {
		case *train.Conv:
			// One batch-parallel sweep over the 3D stacks.
			for p := range cur {
				cur[p] = m.quantA(cur[p])
			}
			w := m.quantW(t.W)
			// ADC full scale calibrated to the typical per-window signal,
			// taken on the first image: a K×K window of independent
			// products has standard deviation ≈ K·σx·σw; four sigmas cover
			// the distribution (rare outliers clamp, as in a real
			// converter).
			bound := 4 * float64(w.Dim(2)) * cur[0].RMS() * w.RMS()
			outs, stats := core.FunctionalConv2D(cur, w, m.funcOpts(t.Spec.Stride, t.Spec.Pad, bound))
			m.stats = m.stats.Plus(stats)
			cur = outs
		case *train.FC:
			for p := range cur {
				cur[p] = m.fcOnArrays(cur[p].Reshape(cur[p].Len()), t.W, t.B)
			}
		case *train.ReLU:
			for p := range cur {
				cur[p] = tensor.ReLU(cur[p]) // digital nonlinear unit
			}
		case *train.MaxPool:
			for p := range cur {
				cur[p] = tensor.MaxPool2D(cur[p], t.K, t.K).Out // digital pooling unit
			}
		default:
			panic(fmt.Sprintf("insitu: unsupported layer %T", l))
		}
	}
	return cur, inputs
}

// TrainStep runs one in-situ forward + backward pass on one image, as a
// batch of one, and applies the SGD update to the network's
// (buffer-resident) weights. It returns the loss.
func (m *Machine) TrainStep(net *train.Network, x *tensor.Tensor, label int, lr float64) float64 {
	return m.TrainStepBatch(net, []*tensor.Tensor{x}, []int{label}, lr)
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
	outs, inputs := m.forward(net, xs)

	deltas := make([]*tensor.Tensor, b)
	totalLoss := 0.0
	for p := range outs {
		loss, d := train.SoftmaxCrossEntropy(outs[p], labels[p])
		totalLoss += loss
		deltas[p] = d
	}

	// Errors overwrite activations: each conv layer's deltas are written
	// into the planes that held its input.
	scale := 1.0 / float64(b)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		switch t := net.Layers[i].(type) {
		case *train.FC:
			// dW/dB are digital (weights live in buffers); dX streams the
			// transposed weights (a digital vector operation).
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
			// AND gates between the stored pre-activation sign and delta.
			for p := range deltas {
				deltas[p] = tensor.ReLUBackward(inputs[i][p], deltas[p])
			}
		case *train.MaxPool:
			// The pooling LUT restores the maximum's original position.
			for p := range deltas {
				res := tensor.MaxPool2D(inputs[i][p], t.K, t.K)
				deltas[p] = tensor.MaxPoolBackward(res, deltas[p], inputs[i][p].Dims())
			}
		case *train.Conv:
			dW := tensor.New(t.W.Dims()...)
			m.gradOnArrays(dW, inputs[i], deltas, t.Spec)
			// Error propagation for the whole batch in one 3D sweep over
			// the transposed kernels.
			deltas = m.backInputBatch(t.W, deltas, t.Spec,
				inputs[i][0].Dim(1), inputs[i][0].Dim(2))
			t.W.AXPYInPlace(-lr*scale, dW)
		}
	}
	return totalLoss / float64(b)
}

// gradOnArrays accumulates a convolution's weight gradient into dW
// [N, C, KH, KW] on the arrays (Fig. 4): each image's padded input
// channels, still resident, fill the planes of one stack, and each error
// channel streams once over the stack as the kernel. Over the
// (KH+dh−1)×(KW+dw−1) region every plane answers with its channel's
// KH×KW gradient map.
func (m *Machine) gradOnArrays(dW *tensor.Tensor, xs, deltas []*tensor.Tensor, spec tensor.ConvSpec) {
	n, c, kh, kw := dW.Dim(0), dW.Dim(1), dW.Dim(2), dW.Dim(3)
	for p, x := range xs {
		delta := deltas[p]
		if spec.Stride != 1 {
			// Strided layers dilate the error first; the plane sweep then
			// proceeds identically.
			delta = tensor.Dilate(delta, spec.Stride)
		}
		dh, dw := delta.Dim(1), delta.Dim(2)
		stack := m.load(tensor.Pad(x, spec.Pad, spec.Pad), nil, false)
		kern := tensor.New(dh, dw)
		for on := 0; on < n; on++ {
			copy(kern.Data(), delta.Data()[on*dh*dw:])
			for ic, g := range stack.ConvolveAll(kern, kh+dh-1, kw+dw-1, 1) {
				acc := dW.Data()[(on*c+ic)*kh*kw:]
				for j, v := range g.Data() {
					acc[j] += v
				}
			}
		}
		m.stats = m.stats.Plus(stack.Stats())
	}
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
