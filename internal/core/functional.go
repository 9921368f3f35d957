package core

import (
	"fmt"

	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
)

// FuncOptions configures functional execution on the 2T1R arrays.
type FuncOptions struct {
	Stride int
	Pad    int
	// Noise perturbs stored activations at write time (the IS nonideality
	// location of Table VI).
	Noise *rram.NoiseModel
	// Quantize, when non-nil, is the ADC transfer function applied to
	// every window read.
	Quantize func(float64) float64
}

// FunctionalConv2D executes a batched multi-channel convolution on 3D
// 2T1R stacks exactly as the INCA hardware does: one vertical plane per
// (image, channel), kernel voltages broadcast over shared pillars, one
// window read per output element per channel, and digital accumulation
// across channels. It returns one [N, OH, OW] output per image plus the
// device event counts.
//
// This is the functional counterpart of the analytical pass: tests verify
// it matches tensor.Conv2D bit-for-bit in the ideal case.
func FunctionalConv2D(batch []*tensor.Tensor, w *tensor.Tensor, opt FuncOptions) ([]*tensor.Tensor, rram.Stats) {
	if len(batch) == 0 {
		panic("core: empty batch")
	}
	if opt.Stride < 1 {
		opt.Stride = 1
	}
	c, h0, w0 := batch[0].Dim(0), batch[0].Dim(1), batch[0].Dim(2)
	n, wc, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if wc != c {
		panic(fmt.Sprintf("core: channel mismatch: input %d, kernel %d", c, wc))
	}
	h := h0 + 2*opt.Pad
	wd := w0 + 2*opt.Pad
	oh := (h-kh)/opt.Stride + 1
	ow := (wd-kw)/opt.Stride + 1

	// One 3D stack per input channel; plane p of stack c holds image p's
	// channel c (padded — the mapper pads partitions before writing).
	// Each image is padded once; channel-major, image-minor writes keep
	// the noise draws in stack order.
	padded := make([]*tensor.Tensor, len(batch))
	for p, img := range batch {
		padded[p] = tensor.Pad(img, opt.Pad, opt.Pad)
	}
	stacks := make([]*rram.Stack, c)
	plane := tensor.New(h, wd)
	for ic := 0; ic < c; ic++ {
		stacks[ic] = rram.NewStack(len(batch), h, wd)
		for p := range batch {
			copy(plane.Data(), padded[p].Data()[ic*h*wd:])
			if opt.Noise != nil {
				stacks[ic].Planes[p].SetNoise(opt.Noise)
			}
			if opt.Quantize != nil {
				stacks[ic].Planes[p].SetQuantizer(opt.Quantize)
			}
			stacks[ic].WriteImage(p, plane)
		}
	}

	outs := make([]*tensor.Tensor, len(batch))
	for p := range outs {
		outs[p] = tensor.New(n, oh, ow)
	}
	kern := tensor.New(kh, kw)
	for on := 0; on < n; on++ {
		for ic := 0; ic < c; ic++ {
			// Stream kernel (on, ic) onto the pillars of stack ic.
			copy(kern.Data(), w.Data()[(on*c+ic)*kh*kw:])
			// All planes (the whole batch) respond to one sweep.
			for p, m := range stacks[ic].ConvolveAll(kern, h, wd, opt.Stride) {
				acc := outs[p].Data()[on*oh*ow:]
				for j, v := range m.Data() {
					acc[j] += v
				}
			}
		}
	}

	var stats rram.Stats
	for _, s := range stacks {
		stats = stats.Plus(s.Stats())
	}
	return outs, stats
}
