package rram

import (
	"fmt"

	"github.com/inca-arch/inca/internal/tensor"
)

// Plane is INCA's 2T1R direct-convolution vertical plane (paper §IV.A).
// A feature-map partition is written into the cells; a convolution is read
// out by activating only the two perpendicular select lines that cover the
// kernel window ("the cells under the activated 2×2 kernel window receive
// weight information as its shape; other cells' one or two transistors are
// off not to be accumulated") and summing all cell currents on the tied
// bottom plane in a single shot.
type Plane struct {
	H, W     int
	cells    []float64
	noise    *NoiseModel
	quantize func(float64) float64
	wear     *Wear
	stats    Stats
}

// NewPlane builds an H×W 2T1R plane.
func NewPlane(h, w int) *Plane {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("rram: invalid plane size %dx%d", h, w))
	}
	return &Plane{H: h, W: w, cells: make([]float64, h*w)}
}

// SetNoise attaches a nonideality model applied at write time — in IS
// dataflow this perturbs *activations*, the robust case of Table VI.
func (p *Plane) SetNoise(n *NoiseModel) { p.noise = n }

// SetQuantizer attaches an ADC transfer function to window reads.
func (p *Plane) SetQuantizer(q func(float64) float64) { p.quantize = q }

// EnableWear starts endurance tracking with the given per-cell budget.
func (p *Plane) EnableWear(endurance int64) { p.wear = NewWear(p.H*p.W, endurance) }

// Wear returns the endurance tracker, or nil if not enabled.
func (p *Plane) Wear() *Wear { return p.wear }

// Write stores the feature-map partition x [h, w] into the plane starting
// at the origin; it models the one-cycle parallel write of Fig. 8c (all
// selected cells adjusted in the same write pulse). Cells outside x keep
// their previous contents.
func (p *Plane) Write(x *tensor.Tensor) {
	if x.Rank() != 2 || x.Dim(0) > p.H || x.Dim(1) > p.W {
		panic(fmt.Sprintf("rram: Write wants at most [%d %d], got %v", p.H, p.W, x.Dims()))
	}
	h, w := x.Dim(0), x.Dim(1)
	scale := x.MaxAbs()
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			v := x.At(y, xx)
			if p.noise != nil {
				v = p.noise.Perturb(v, scale)
			}
			idx := y*p.W + xx
			p.cells[idx] = v
			if p.wear != nil {
				p.wear.RecordWrite(idx)
			}
		}
	}
	p.stats.CellWrites += int64(h) * int64(w)
}

// At returns the stored cell value (for inspection and tests).
func (p *Plane) At(y, x int) float64 { return p.cells[y*p.W+x] }

// ReadWindow performs one direct-convolution read: the kernel w [kh, kw]
// is applied over the window whose top-left cell is (oy, ox); the return
// value is the one-shot accumulated current. Windows must lie fully inside
// the plane (the mapper pads partitions before writing).
func (p *Plane) ReadWindow(w *tensor.Tensor, oy, ox int) float64 {
	kh, kw := w.Dim(0), w.Dim(1)
	if oy < 0 || ox < 0 || oy+kh > p.H || ox+kw > p.W {
		panic(fmt.Sprintf("rram: window %dx%d at (%d,%d) exceeds plane %dx%d", kh, kw, oy, ox, p.H, p.W))
	}
	sum := 0.0
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			sum += p.cells[(oy+ky)*p.W+ox+kx] * w.At(ky, kx)
		}
	}
	if p.quantize != nil {
		sum = p.quantize(sum)
	}
	p.stats.CellReads += int64(kh) * int64(kw)
	p.stats.Outputs++
	return sum
}

// Convolve slides the kernel w [kh, kw] over the stored h×w region with
// the given stride and returns the output map — the layer-level operation
// of Fig. 8d ("once one convolution is finished, by turning off the first
// column and on the third column, the next convolution can be computed").
// h and w bound the valid data region (the plane may be larger than the
// written partition).
func (p *Plane) Convolve(w *tensor.Tensor, h, wd, stride int) *tensor.Tensor {
	if h > p.H || wd > p.W {
		panic(fmt.Sprintf("rram: region %dx%d exceeds plane %dx%d", h, wd, p.H, p.W))
	}
	kh, kw := w.Dim(0), w.Dim(1)
	oh := (h-kh)/stride + 1
	ow := (wd-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("rram: kernel %dx%d does not fit region %dx%d", kh, kw, h, wd))
	}
	out := tensor.New(oh, ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			out.Set(p.ReadWindow(w, oy*stride, ox*stride), oy, ox)
		}
	}
	return out
}

// Overwrite replaces the stored region with new data — the activation-to-
// error recycling of the backward pass ("INCA can reuse RRAMs, which were
// used for input values in l, for the calculated errors in l", §IV.C).
// It is Write by another name, kept separate so call sites document intent.
func (p *Plane) Overwrite(x *tensor.Tensor) { p.Write(x) }

// Stats returns the accumulated event counts.
func (p *Plane) Stats() Stats { return p.stats }

// Stack is the 3D HRRAM organization (paper §IV.B): vertical 2T1R planes
// stacked horizontally, penetrated by shared pillars that carry the weight
// voltages. One kernel read drives every plane simultaneously, producing
// one output per plane — this is what makes batch processing one-shot.
type Stack struct {
	Planes []*Plane
	H, W   int
}

// NewStack builds n planes of size h×w.
func NewStack(n, h, w int) *Stack {
	if n <= 0 {
		panic(fmt.Sprintf("rram: invalid stack depth %d", n))
	}
	s := &Stack{H: h, W: w, Planes: make([]*Plane, n)}
	for i := range s.Planes {
		s.Planes[i] = NewPlane(h, w)
	}
	return s
}

// WriteImage stores a feature-map partition into plane i (one image of the
// batch per plane).
func (s *Stack) WriteImage(i int, x *tensor.Tensor) { s.Planes[i].Write(x) }

// ConvolveAll slides the kernel across the h×w region of every plane,
// returning one output map per plane. In hardware all planes respond to
// the same pillar voltages, so the latency is that of a single plane; the
// per-plane energy is reflected in each plane's stats.
func (s *Stack) ConvolveAll(w *tensor.Tensor, h, wd, stride int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(s.Planes))
	for i, p := range s.Planes {
		out[i] = p.Convolve(w, h, wd, stride)
	}
	return out
}

// Stats returns the summed event counts across planes.
func (s *Stack) Stats() Stats {
	var t Stats
	for _, p := range s.Planes {
		t = t.Plus(p.Stats())
	}
	return t
}
