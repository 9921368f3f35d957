// Package train is the software training engine of the INCA reproduction:
// feedforward, backpropagation, and vanilla-SGD weight update (paper
// Eqs. 1-4), with the nonideality-injection hooks the Table I and Table VI
// accuracy experiments need.
//
// The engine deliberately mirrors the paper's hardware semantics:
//
//   - Weight-side noise (the WS vulnerability) has a persistent component:
//     every weight *write* — each SGD update — lands with device error, so
//     errors accumulate across training, plus a transient read error on
//     every use.
//   - Activation-side noise (the IS case) is purely transient: activations
//     are rewritten into the arrays on every forward pass, so each use
//     sees fresh, non-accumulating noise.
package train

import (
	"fmt"
	"math/rand"

	"github.com/inca-arch/inca/internal/fixed"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
)

// NoiseTarget selects where device nonideality is injected.
type NoiseTarget int

// Injection targets.
const (
	NoiseNone NoiseTarget = iota
	NoiseWeights
	NoiseActivations
)

// String returns the target's display name.
func (n NoiseTarget) String() string {
	switch n {
	case NoiseWeights:
		return "weights"
	case NoiseActivations:
		return "activations"
	default:
		return "none"
	}
}

// Layer is one differentiable stage of the network. Forward and Backward
// return scratch the layer owns: a result stays valid until the layer's
// next call of the same method, which overwrites it. Network.Forward
// copies its result before returning it.
type Layer interface {
	// Forward consumes the previous activation and returns the next.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), storing any
	// parameter gradients internally.
	Backward(delta *tensor.Tensor) *tensor.Tensor
	// Step applies the vanilla gradient-descent update (Eq. 4) with the
	// given learning rate. writeNoise, when non-nil, perturbs the written
	// weights (persistent device error).
	Step(lr float64, writeNoise *rram.NoiseModel)
}

// Conv is a 2D convolution layer with direct-convolution forward and the
// Eq. 3/4 backward passes.
type Conv struct {
	W    *tensor.Tensor // [N, C, KH, KW]
	Spec tensor.ConvSpec

	readNoise *rram.NoiseModel // transient weight read noise

	x       *tensor.Tensor // cached input
	out, dx *tensor.Tensor // Forward's and Backward's scratch results
	dW      *tensor.Tensor
	noisyW  *tensor.Tensor // read-noise copy of W, redrawn at every use
}

// NewConv builds a conv layer with He-style initialization.
func NewConv(rng *rand.Rand, outC, inC, k int, spec tensor.ConvSpec) *Conv {
	std := 1.4 / float64(k) / float64(inC)
	if std < 0.05 {
		std = 0.05
	}
	return &Conv{W: tensor.Randn(rng, std, outC, inC, k, k), Spec: spec}
}

// SetReadNoise attaches transient per-use weight noise.
func (c *Conv) SetReadNoise(n *rram.NoiseModel) { c.readNoise = n }

// effectiveW returns the weights one use reads. The forward pass is done
// with its noisy copy before the backward pass draws the next, so one
// scratch serves both.
func (c *Conv) effectiveW() *tensor.Tensor {
	if c.readNoise == nil {
		return c.W
	}
	c.noisyW = c.readNoise.PerturbTensorInto(c.noisyW, c.W)
	return c.noisyW
}

// Forward implements Eq. 1.
func (c *Conv) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	c.out = tensor.Conv2DInto(c.out, x, c.effectiveW(), c.Spec)
	return c.out
}

// Backward implements Eqs. 3 and 4 for the convolution.
func (c *Conv) Backward(delta *tensor.Tensor) *tensor.Tensor {
	c.dx = tensor.ConvBackwardInputInto(c.dx, c.weightGrad(delta), delta, c.Spec, c.x.Dim(1), c.x.Dim(2))
	return c.dx
}

// weightGrad stores dW (Eq. 4); see weightGrader.
func (c *Conv) weightGrad(delta *tensor.Tensor) *tensor.Tensor {
	c.dW = tensor.ConvBackwardWeightsInto(c.dW, c.x, delta, c.Spec, c.W.Dim(2), c.W.Dim(3))
	return c.effectiveW()
}

// Step applies W -= lr·dW, with optional persistent write noise.
func (c *Conv) Step(lr float64, writeNoise *rram.NoiseModel) {
	c.W.AXPYInPlace(-lr, c.dW)
	if writeNoise != nil {
		writeNoise.PerturbInPlace(c.W)
	}
}

// FC is a fully connected layer (Eq. 2) over a flattened input.
type FC struct {
	W *tensor.Tensor // [out, in]
	B *tensor.Tensor // [out]

	readNoise *rram.NoiseModel

	x      *tensor.Tensor // flattened cached input
	inDims []int
	out    *tensor.Tensor // Forward's scratch result
	dxFlat *tensor.Tensor // Wᵀδ, before it takes the input's shape
	dx     *tensor.Tensor // Backward's scratch result
	dW, dB *tensor.Tensor
	noisyW *tensor.Tensor // read-noise copy of W, as in Conv
}

// NewFC builds a fully connected layer.
func NewFC(rng *rand.Rand, out, in int) *FC {
	std := 1.0 / float64(in)
	if std < 0.02 {
		std = 0.02
	}
	return &FC{W: tensor.Randn(rng, std, out, in), B: tensor.New(out)}
}

// SetReadNoise attaches transient per-use weight noise.
func (f *FC) SetReadNoise(n *rram.NoiseModel) { f.readNoise = n }

func (f *FC) effectiveW() *tensor.Tensor {
	if f.readNoise == nil {
		return f.W
	}
	f.noisyW = f.readNoise.PerturbTensorInto(f.noisyW, f.W)
	return f.noisyW
}

// Forward flattens x and computes Wx + b.
func (f *FC) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inDims = append(f.inDims[:0], x.Dims()...)
	f.x = x.ReshapeInto(f.x, x.Len())
	f.out = tensor.MatVecInto(f.out, f.effectiveW(), f.x)
	f.out.AddInPlace(f.B)
	return f.out
}

// Backward computes dW = δ⊗x, dB = δ, and returns Wᵀδ reshaped to the
// input dimensions.
func (f *FC) Backward(delta *tensor.Tensor) *tensor.Tensor {
	f.dxFlat = tensor.MatVecTInto(f.dxFlat, f.weightGrad(delta), delta)
	f.dx = f.dxFlat.ReshapeInto(f.dx, f.inDims...)
	return f.dx
}

// weightGrad stores dW and dB; see weightGrader.
func (f *FC) weightGrad(delta *tensor.Tensor) *tensor.Tensor {
	f.dW = tensor.OuterInto(f.dW, delta, f.x)
	f.dB = delta.ReshapeInto(f.dB, delta.Dims()...)
	return f.effectiveW()
}

// Step applies the SGD update with optional persistent write noise.
func (f *FC) Step(lr float64, writeNoise *rram.NoiseModel) {
	f.W.AXPYInPlace(-lr, f.dW)
	f.B.AXPYInPlace(-lr, f.dB)
	if writeNoise != nil {
		writeNoise.PerturbInPlace(f.W)
	}
}

// ReLU applies the rectifier; its backward is the AND-gate masking of
// §IV.C.
type ReLU struct {
	x       *tensor.Tensor // cached input
	out, dx *tensor.Tensor // Forward's and Backward's scratch results
}

// Forward applies max(x, 0).
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.x = x
	r.out = tensor.ReLUInto(r.out, x)
	return r.out
}

// Backward masks the gradient by the input sign.
func (r *ReLU) Backward(delta *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.ReLUBackwardInto(r.dx, r.x, delta)
	return r.dx
}

// Step is a no-op (no parameters).
func (r *ReLU) Step(float64, *rram.NoiseModel) {}

// MaxPool is a k×k/stride-k max-pooling layer whose backward routes
// gradients through the recorded argmax LUT.
type MaxPool struct {
	K      int
	res    tensor.MaxPoolResult
	inDims []int
	dx     *tensor.Tensor // Backward's scratch result
}

// Forward pools and records argmax positions.
func (p *MaxPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.inDims = append(p.inDims[:0], x.Dims()...)
	p.res = tensor.MaxPool2DInto(p.res, x, p.K, p.K)
	return p.res.Out
}

// Backward scatters gradients to the recorded positions.
func (p *MaxPool) Backward(delta *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.MaxPoolBackwardInto(p.dx, p.res, delta, p.inDims)
	return p.dx
}

// Step is a no-op (no parameters).
func (p *MaxPool) Step(float64, *rram.NoiseModel) {}

// Network is an ordered layer stack.
type Network struct {
	Layers []Layer

	// ActNoise, when non-nil, perturbs every intermediate activation on
	// every forward pass (the IS storage nonideality: transient, because
	// activations are rewritten each pass).
	ActNoise *rram.NoiseModel

	// Quant, when non-nil, applies post-training quantization during
	// forward passes (Table I protocol).
	Quant *QuantSpec

	// noisy holds each compute layer's noisy input, by layer index: the
	// layer caches it for its backward pass.
	noisy []*tensor.Tensor
}

// QuantSpec selects evaluation-time bit depths (0 disables an operand).
type QuantSpec struct {
	WeightBits     int
	ActivationBits int
}

// Forward runs the network on one image. Device effects on activations —
// noise and quantization — apply where the data physically sits in RRAM:
// at the *inputs* of compute layers. The final logits live in digital
// post-processing and are never perturbed. The result is the caller's.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.forward(x).Clone()
}

// forward is Forward returning the last layer's scratch, valid until the
// next pass.
func (n *Network) forward(x *tensor.Tensor) *tensor.Tensor {
	if n.ActNoise != nil && len(n.noisy) != len(n.Layers) {
		n.noisy = make([]*tensor.Tensor, len(n.Layers))
	}
	for i, l := range n.Layers {
		if _, isConv := l.(*Conv); isConv || isFC(l) {
			if n.ActNoise != nil {
				n.noisy[i] = n.ActNoise.PerturbTensorInto(n.noisy[i], x)
				x = n.noisy[i]
			}
			if n.Quant != nil && n.Quant.ActivationBits > 0 {
				x = fixed.QuantizeTensor(x, n.Quant.ActivationBits)
			}
		}
		x = l.Forward(x)
	}
	return x
}

func isFC(l Layer) bool {
	_, ok := l.(*FC)
	return ok
}

// ForwardBatch runs one independent forward pass per image and returns
// the outputs in input order. When the network carries no stochastic
// hooks, the images are spread over replicas of the network on workers
// drawn from the shared tensor kernel budget (tensor.SetParallelism), so
// batch evaluation and the kernels it calls never oversubscribe the
// machine; outputs are byte-identical to serial Forward calls. Networks
// with noise hooks draw from a shared sequential RNG whose stream order
// is part of the experiment's determinism, so they evaluate serially.
func (n *Network) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(xs))
	if len(xs) == 0 {
		return outs
	}
	if !n.deterministicEval() {
		for i, x := range xs {
			outs[i] = n.Forward(x)
		}
		return outs
	}
	tensor.ParallelChunks(len(xs), func(chunk, lo, hi int) {
		replica := n
		if chunk > 0 {
			// Layers cache their inputs during Forward, so concurrent
			// chunks need private layer stacks. Weights are shared
			// read-only state and are deep-copied by Clone.
			replica = n.evalReplica()
		}
		for i := lo; i < hi; i++ {
			outs[i] = replica.Forward(xs[i])
		}
	})
	return outs
}

// deterministicEval reports whether a forward pass is a pure function of
// the weights and input: no noise hooks anywhere (quantization is
// per-image deterministic and therefore fine) and only layer types Clone
// knows how to replicate.
func (n *Network) deterministicEval() bool {
	if n.ActNoise != nil {
		return false
	}
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv:
			if t.readNoise != nil {
				return false
			}
		case *FC:
			if t.readNoise != nil {
				return false
			}
		case *ReLU, *MaxPool:
		default:
			return false // unknown layer: cannot safely replicate
		}
	}
	return true
}

// evalReplica clones the network for one evaluation worker, carrying over
// the deterministic evaluation hooks Clone drops.
func (n *Network) evalReplica() *Network {
	r := n.Clone()
	if n.Quant != nil {
		q := *n.Quant
		r.Quant = &q
	}
	return r
}

// Backward propagates the loss gradient through all layers (Eq. 3). The
// first layer's input gradient has no consumer, so a parametric first
// layer computes only its weight gradients; it still draws the read noise
// its input gradient would have used, so every later draw is unchanged.
func (n *Network) Backward(delta *tensor.Tensor) {
	for i := len(n.Layers) - 1; i > 0; i-- {
		delta = n.Layers[i].Backward(delta)
	}
	if len(n.Layers) == 0 {
		return
	}
	if g, ok := n.Layers[0].(weightGrader); ok {
		g.weightGrad(delta)
	} else {
		n.Layers[0].Backward(delta)
	}
}

// weightGrader is a parametric layer. weightGrad stores the layer's
// parameter gradients for the output gradient delta and returns the
// weights its input gradient would read, drawing their read noise.
type weightGrader interface {
	weightGrad(delta *tensor.Tensor) *tensor.Tensor
}

// Step updates every layer's parameters (Eq. 4).
func (n *Network) Step(lr float64, writeNoise *rram.NoiseModel) {
	for _, l := range n.Layers {
		l.Step(lr, writeNoise)
	}
}

// SetWeightReadNoise attaches transient weight noise to all parametric
// layers.
func (n *Network) SetWeightReadNoise(noise *rram.NoiseModel) {
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv:
			t.SetReadNoise(noise)
		case *FC:
			t.SetReadNoise(noise)
		}
	}
}

// PerturbWeights applies one persistent device-write error to every
// parametric layer's weights — the reprogramming noise a WS accelerator
// suffers each time updated weights land in RRAM.
func (n *Network) PerturbWeights(noise *rram.NoiseModel) {
	if noise == nil {
		return
	}
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv:
			noise.PerturbInPlace(t.W)
		case *FC:
			noise.PerturbInPlace(t.W)
		}
	}
}

// QuantizeWeights rounds every parametric layer's weights to the given
// bit depth in place (Table I's post-training weight quantization).
func (n *Network) QuantizeWeights(bits int) {
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv:
			t.W = fixed.QuantizeTensor(t.W, bits)
		case *FC:
			t.W = fixed.QuantizeTensor(t.W, bits)
		}
	}
}

// Clone returns a deep copy of the network's parameters in a new network
// with the same topology. Noise/quant hooks are not copied.
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv:
			out.Layers = append(out.Layers, &Conv{W: t.W.Clone(), Spec: t.Spec})
		case *FC:
			out.Layers = append(out.Layers, &FC{W: t.W.Clone(), B: t.B.Clone()})
		case *ReLU:
			out.Layers = append(out.Layers, &ReLU{})
		case *MaxPool:
			out.Layers = append(out.Layers, &MaxPool{K: t.K})
		default:
			panic(fmt.Sprintf("train: cannot clone layer %T", l))
		}
	}
	return out
}

// SmallCNN builds the compact classifier used by the accuracy
// experiments: conv8-relu-pool2-conv16-relu-pool2-fc.
func SmallCNN(rng *rand.Rand, inC, inH, inW, classes int) *Network {
	n := &Network{}
	n.Layers = append(n.Layers,
		NewConv(rng, 8, inC, 3, tensor.ConvSpec{Stride: 1}),
		&ReLU{},
		&MaxPool{K: 2},
	)
	h := (inH - 2) / 2
	w := (inW - 2) / 2
	n.Layers = append(n.Layers,
		NewConv(rng, 16, 8, 3, tensor.ConvSpec{Stride: 1}),
		&ReLU{},
		&MaxPool{K: 2},
	)
	h = (h - 2) / 2
	w = (w - 2) / 2
	n.Layers = append(n.Layers, NewFC(rng, classes, 16*h*w))
	return n
}
