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
	stacks := make([]*rram.Stack, c)
	for ic := 0; ic < c; ic++ {
		stacks[ic] = rram.NewStack(len(batch), h, wd)
		for p, img := range batch {
			padded := tensor.Pad(img, opt.Pad, opt.Pad)
			channel := tensor.CropTo(padded, 0, 0, h, wd) // copy
			// Extract channel ic as a 2D tensor.
			plane := tensor.New(h, wd)
			for y := 0; y < h; y++ {
				for x := 0; x < wd; x++ {
					plane.Set(channel.At(ic, y, x), y, x)
				}
			}
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
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					kern.Set(w.At(on, ic, ky, kx), ky, kx)
				}
			}
			// All planes (the whole batch) respond to one sweep.
			perPlane := stacks[ic].ConvolveAll(kern, h, wd, opt.Stride)
			for p, m := range perPlane {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						outs[p].Set(outs[p].At(on, oy, ox)+m.At(oy, ox), on, oy, ox)
					}
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
