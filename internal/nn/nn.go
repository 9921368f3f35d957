// Package nn describes deep neural networks at the architectural level:
// per-layer shapes, kernel geometry, and derived counts (MACs, parameters,
// activations). These layer descriptions drive every analytical experiment
// in the INCA reproduction — the simulators consume shapes, not weights.
//
// The zoo covers the six ImageNet CNNs evaluated in the paper (VGG16,
// VGG19, ResNet18, ResNet50, MobileNetV2, MNasNet) plus the CIFAR-10
// variants used in Fig. 6 and LeNet-5 referenced in §III.A.
package nn

import (
	"fmt"
	"strings"
)

// Kind identifies a layer's operation.
type Kind int

// Layer kinds. Conv covers regular, pointwise (1×1) and strided
// convolutions; Depthwise is a grouped convolution with one filter per
// channel (paper Fig. 3b).
const (
	Conv Kind = iota
	Depthwise
	FC
	MaxPool
	AvgPool
	GlobalAvgPool
	ReLU
	Add // residual element-wise addition
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Depthwise:
		return "dwconv"
	case FC:
		return "fc"
	case MaxPool:
		return "maxpool"
	case AvgPool:
		return "avgpool"
	case GlobalAvgPool:
		return "gap"
	case ReLU:
		return "relu"
	case Add:
		return "add"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Layer is a shape-level description of one network layer. For FC layers
// the "spatial" fields are 1×1 and the channel fields carry the vector
// lengths (InC = inputs, OutC = outputs).
type Layer struct {
	Name string
	Kind Kind

	InC, InH, InW    int
	OutC, OutH, OutW int

	KH, KW, Stride, Pad int

	// Branch marks a side-path layer (e.g. a ResNet projection shortcut)
	// whose input taps an earlier point of the network and whose output
	// merges at the next Add; it does not advance the main data stream.
	Branch bool
}

// IsCompute reports whether the layer performs multiply-accumulates
// (convolution, depthwise convolution, or fully-connected).
func (l *Layer) IsCompute() bool {
	return l.Kind == Conv || l.Kind == Depthwise || l.Kind == FC
}

// MACs returns the number of multiply-accumulate operations in one forward
// pass of a single image.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) *
			int64(l.InC) * int64(l.KH) * int64(l.KW)
	case Depthwise:
		return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) *
			int64(l.KH) * int64(l.KW)
	case FC:
		return int64(l.InC) * int64(l.OutC)
	default:
		return 0
	}
}

// WeightParams returns the number of weight parameters held by the layer.
func (l *Layer) WeightParams() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.OutC) * int64(l.InC) * int64(l.KH) * int64(l.KW)
	case Depthwise:
		return int64(l.InC) * int64(l.KH) * int64(l.KW)
	case FC:
		return int64(l.InC) * int64(l.OutC)
	default:
		return 0
	}
}

// InputElems returns the number of input activation elements.
func (l *Layer) InputElems() int64 {
	return int64(l.InC) * int64(l.InH) * int64(l.InW)
}

// OutputElems returns the number of output activation elements.
func (l *Layer) OutputElems() int64 {
	return int64(l.OutC) * int64(l.OutH) * int64(l.OutW)
}

// AccumulationDepth returns the number of products accumulated into one
// output element — the quantity that determines how many crossbar rows a
// WS design can actually use (paper §V.B.4: "3×3 kernels in depthwise
// convolution only use nine of 128 cells in a column").
func (l *Layer) AccumulationDepth() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.InC) * int64(l.KH) * int64(l.KW)
	case Depthwise:
		return int64(l.KH) * int64(l.KW)
	case FC:
		return int64(l.InC)
	default:
		return 0
	}
}

// String renders a one-line layer summary.
func (l Layer) String() string {
	switch l.Kind {
	case Conv, Depthwise:
		return fmt.Sprintf("%s %s %dx%dx%d -> %dx%dx%d k%dx%d s%d p%d",
			l.Name, l.Kind, l.InC, l.InH, l.InW, l.OutC, l.OutH, l.OutW, l.KH, l.KW, l.Stride, l.Pad)
	case FC:
		return fmt.Sprintf("%s fc %d -> %d", l.Name, l.InC, l.OutC)
	default:
		return fmt.Sprintf("%s %s %dx%dx%d -> %dx%dx%d",
			l.Name, l.Kind, l.InC, l.InH, l.InW, l.OutC, l.OutH, l.OutW)
	}
}

// Network is an ordered list of layers with a named topology.
type Network struct {
	Name                   string
	InputC, InputH, InputW int
	Classes                int
	Layers                 []Layer
}

// ComputeCount returns how many of the network's layers perform MACs:
// the row count of every simulator report.
func (n *Network) ComputeCount() int {
	c := 0
	for i := range n.Layers {
		if n.Layers[i].IsCompute() {
			c++
		}
	}
	return c
}

// ComputeLayers returns the MAC-performing layers in execution order.
func (n *Network) ComputeLayers() []Layer {
	var out []Layer
	for _, l := range n.Layers {
		if l.IsCompute() {
			out = append(out, l)
		}
	}
	return out
}

// ConvLayers returns only the spatial convolution layers (regular +
// depthwise), excluding FC.
func (n *Network) ConvLayers() []Layer {
	var out []Layer
	for _, l := range n.Layers {
		if l.Kind == Conv || l.Kind == Depthwise {
			out = append(out, l)
		}
	}
	return out
}

// TotalMACs returns the MAC count of a single-image forward pass.
func (n *Network) TotalMACs() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.MACs()
	}
	return s
}

// TotalWeights returns the total number of weight parameters.
func (n *Network) TotalWeights() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.WeightParams()
	}
	return s
}

// TotalActivations returns the total number of activation elements produced
// across all compute layers' inputs (i.e. the data an IS design must hold
// in RRAM for the backward pass).
func (n *Network) TotalActivations() int64 {
	var s int64
	for _, l := range n.Layers {
		if l.IsCompute() {
			s += l.InputElems()
		}
	}
	return s
}

// IsLightModel reports whether the network relies on depthwise/pointwise
// convolution (the paper's "light models": MobileNetV2, MNasNet).
func (n *Network) IsLightModel() bool {
	dw := 0
	for _, l := range n.Layers {
		if l.Kind == Depthwise {
			dw++
		}
	}
	return dw > 0
}

// Summary renders a human-readable layer table with per-layer MACs and
// parameters plus network totals.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: input %dx%dx%d, %d classes\n",
		n.Name, n.InputC, n.InputH, n.InputW, n.Classes)
	for _, l := range n.Layers {
		if l.IsCompute() {
			fmt.Fprintf(&b, "  %-44s %12d MACs %10d params\n", l.String(), l.MACs(), l.WeightParams())
		} else {
			fmt.Fprintf(&b, "  %-44s\n", l.String())
		}
	}
	fmt.Fprintf(&b, "  total: %d MACs, %d params, %d activations\n",
		n.TotalMACs(), n.TotalWeights(), n.TotalActivations())
	return b.String()
}

// Validate checks internal consistency: every layer's input shape matches
// the previous layer's output shape and declared output geometry follows
// from the kernel spec. It returns the first inconsistency found.
func (n *Network) Validate() error {
	c, h, w := n.InputC, n.InputH, n.InputW
	for i, l := range n.Layers {
		if l.Branch {
			// A side branch must emit the shape of the stream it merges
			// into; its input comes from an earlier tap we don't track.
			if l.OutC != c || l.OutH != h || l.OutW != w {
				return fmt.Errorf("layer %d (%s): branch output %dx%dx%d does not match stream %dx%dx%d",
					i, l.Name, l.OutC, l.OutH, l.OutW, c, h, w)
			}
			continue
		}
		if l.Kind == Add {
			// Residual adds keep the running shape; their declared shapes
			// must match it.
			if l.InC != c || l.InH != h || l.InW != w {
				return fmt.Errorf("layer %d (%s): add shape %dx%dx%d does not match stream %dx%dx%d",
					i, l.Name, l.InC, l.InH, l.InW, c, h, w)
			}
			continue
		}
		if l.Kind == FC {
			// FC layers implicitly flatten the incoming feature map.
			if l.InC != c*h*w {
				return fmt.Errorf("layer %d (%s): fc input %d does not match flattened %d",
					i, l.Name, l.InC, c*h*w)
			}
		} else if l.InC != c || l.InH != h || l.InW != w {
			return fmt.Errorf("layer %d (%s): input %dx%dx%d does not match previous output %dx%dx%d",
				i, l.Name, l.InC, l.InH, l.InW, c, h, w)
		}
		switch l.Kind {
		case Conv, Depthwise, MaxPool, AvgPool:
			if l.Stride < 1 {
				return fmt.Errorf("layer %d (%s): stride %d must be at least 1", i, l.Name, l.Stride)
			}
			if l.KH < 1 || l.KW < 1 || l.KH > l.InH+2*l.Pad || l.KW > l.InW+2*l.Pad {
				return fmt.Errorf("layer %d (%s): kernel %dx%d does not fit padded input %dx%d (input %dx%d, pad %d)",
					i, l.Name, l.KH, l.KW, l.InH+2*l.Pad, l.InW+2*l.Pad, l.InH, l.InW, l.Pad)
			}
			wantH := (l.InH+2*l.Pad-l.KH)/l.Stride + 1
			wantW := (l.InW+2*l.Pad-l.KW)/l.Stride + 1
			if l.OutH != wantH || l.OutW != wantW {
				return fmt.Errorf("layer %d (%s): declared output %dx%d, geometry gives %dx%d",
					i, l.Name, l.OutH, l.OutW, wantH, wantW)
			}
			if l.Kind == Depthwise && l.OutC != l.InC {
				return fmt.Errorf("layer %d (%s): depthwise must preserve channels", i, l.Name)
			}
		case GlobalAvgPool:
			if l.OutH != 1 || l.OutW != 1 || l.OutC != l.InC {
				return fmt.Errorf("layer %d (%s): global pool must emit Cx1x1", i, l.Name)
			}
		case ReLU:
			if l.OutC != l.InC || l.OutH != l.InH || l.OutW != l.InW {
				return fmt.Errorf("layer %d (%s): relu must preserve shape", i, l.Name)
			}
		case FC:
			if l.InH != 1 || l.InW != 1 || l.OutH != 1 || l.OutW != 1 {
				return fmt.Errorf("layer %d (%s): fc must be 1x1 spatial", i, l.Name)
			}
		}
		c, h, w = l.OutC, l.OutH, l.OutW
	}
	return nil
}
