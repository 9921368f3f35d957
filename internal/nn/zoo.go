package nn

import (
	"fmt"
	"slices"
	"sync"
)

// builder threads the running feature-map shape through layer construction.
type builder struct {
	net     *Network
	c, h, w int
	seq     int
}

func newBuilder(name string, c, h, w, classes int) *builder {
	return &builder{
		net: &Network{Name: name, InputC: c, InputH: h, InputW: w, Classes: classes},
		c:   c, h: h, w: w,
	}
}

func (b *builder) name(kind string) string {
	b.seq++
	return fmt.Sprintf("%s%d", kind, b.seq)
}

func (b *builder) push(l Layer) {
	b.net.Layers = append(b.net.Layers, l)
	b.c, b.h, b.w = l.OutC, l.OutH, l.OutW
}

func (b *builder) conv(outC, k, stride, pad int) *builder {
	oh := (b.h+2*pad-k)/stride + 1
	ow := (b.w+2*pad-k)/stride + 1
	b.push(Layer{
		Name: b.name("conv"), Kind: Conv,
		InC: b.c, InH: b.h, InW: b.w,
		OutC: outC, OutH: oh, OutW: ow,
		KH: k, KW: k, Stride: stride, Pad: pad,
	})
	return b
}

func (b *builder) dwconv(k, stride, pad int) *builder {
	oh := (b.h+2*pad-k)/stride + 1
	ow := (b.w+2*pad-k)/stride + 1
	b.push(Layer{
		Name: b.name("dw"), Kind: Depthwise,
		InC: b.c, InH: b.h, InW: b.w,
		OutC: b.c, OutH: oh, OutW: ow,
		KH: k, KW: k, Stride: stride, Pad: pad,
	})
	return b
}

func (b *builder) relu() *builder {
	b.push(Layer{
		Name: b.name("relu"), Kind: ReLU,
		InC: b.c, InH: b.h, InW: b.w,
		OutC: b.c, OutH: b.h, OutW: b.w,
	})
	return b
}

func (b *builder) maxpool(k, stride, pad int) *builder {
	oh := (b.h+2*pad-k)/stride + 1
	ow := (b.w+2*pad-k)/stride + 1
	b.push(Layer{
		Name: b.name("pool"), Kind: MaxPool,
		InC: b.c, InH: b.h, InW: b.w,
		OutC: b.c, OutH: oh, OutW: ow,
		KH: k, KW: k, Stride: stride, Pad: pad,
	})
	return b
}

func (b *builder) gap() *builder {
	b.push(Layer{
		Name: b.name("gap"), Kind: GlobalAvgPool,
		InC: b.c, InH: b.h, InW: b.w,
		OutC: b.c, OutH: 1, OutW: 1,
	})
	return b
}

func (b *builder) fc(out int) *builder {
	b.push(Layer{
		Name: b.name("fc"), Kind: FC,
		InC: b.c * b.h * b.w, InH: 1, InW: 1,
		OutC: out, OutH: 1, OutW: 1,
	})
	return b
}

func (b *builder) add() *builder {
	b.push(Layer{
		Name: b.name("add"), Kind: Add,
		InC: b.c, InH: b.h, InW: b.w,
		OutC: b.c, OutH: b.h, OutW: b.w,
	})
	return b
}

func (b *builder) build() *Network {
	if err := b.net.Validate(); err != nil {
		panic(fmt.Sprintf("nn: builder produced inconsistent %s: %v", b.net.Name, err))
	}
	return b.net
}

// vgg builds a VGG topology from a per-stage channel plan; a 0 marks a
// max-pool. fcDims lists the classifier widths.
func vgg(name string, plan []int, inH int, fcDims []int, classes int) *Network {
	b := newBuilder(name, 3, inH, inH, classes)
	for _, ch := range plan {
		if ch == 0 {
			b.maxpool(2, 2, 0)
			continue
		}
		b.conv(ch, 3, 1, 1).relu()
	}
	for _, d := range fcDims {
		b.fc(d).relu()
	}
	b.fc(classes)
	return b.build()
}

// VGG16 returns the 16-layer VGG configuration for 224×224 ImageNet input
// (Simonyan & Zisserman, configuration D).
func VGG16() *Network {
	return vgg("VGG16", []int{
		64, 64, 0,
		128, 128, 0,
		256, 256, 256, 0,
		512, 512, 512, 0,
		512, 512, 512, 0,
	}, 224, []int{4096, 4096}, 1000)
}

// VGG19 returns the 19-layer VGG configuration (E) for ImageNet.
func VGG19() *Network {
	return vgg("VGG19", []int{
		64, 64, 0,
		128, 128, 0,
		256, 256, 256, 256, 0,
		512, 512, 512, 512, 0,
		512, 512, 512, 512, 0,
	}, 224, []int{4096, 4096}, 1000)
}

// VGG16CIFAR is the CIFAR-10 adaptation of VGG16 (32×32 input, compact
// classifier) used by the paper's Fig. 6 energy-breakdown motivation.
func VGG16CIFAR() *Network {
	return vgg("VGG16-CIFAR", []int{
		64, 64, 0,
		128, 128, 0,
		256, 256, 256, 0,
		512, 512, 512, 0,
		512, 512, 512, 0,
	}, 32, []int{512}, 10)
}

// basicBlock appends a ResNet basic block (two 3×3 convs plus identity or
// 1×1 downsample shortcut).
func basicBlock(b *builder, outC, stride int) {
	if stride != 1 || b.c != outC {
		// Projection shortcut: modeled as an extra 1×1 conv on the input.
		inC, inH, inW := b.c, b.h, b.w
		b.conv(outC, 3, stride, 1).relu().conv(outC, 3, 1, 1)
		oh := (inH+2-3)/stride + 1
		b.net.Layers = append(b.net.Layers, Layer{
			Name: b.name("down"), Kind: Conv,
			InC: inC, InH: inH, InW: inW,
			OutC: outC, OutH: oh, OutW: oh,
			KH: 1, KW: 1, Stride: stride, Pad: 0,
			Branch: true,
		})
		b.add().relu()
		return
	}
	b.conv(outC, 3, 1, 1).relu().conv(outC, 3, 1, 1).add().relu()
}

// bottleneckBlock appends a ResNet bottleneck block (1×1 reduce, 3×3, 1×1
// expand ×4) with a projection shortcut where the shape changes.
func bottleneckBlock(b *builder, midC, stride int) {
	outC := midC * 4
	needsProj := stride != 1 || b.c != outC
	inC, inH, inW := b.c, b.h, b.w
	b.conv(midC, 1, 1, 0).relu().
		conv(midC, 3, stride, 1).relu().
		conv(outC, 1, 1, 0)
	if needsProj {
		oh := (inH-1)/stride + 1
		b.net.Layers = append(b.net.Layers, Layer{
			Name: b.name("down"), Kind: Conv,
			InC: inC, InH: inH, InW: inW,
			OutC: outC, OutH: oh, OutW: oh,
			KH: 1, KW: 1, Stride: stride, Pad: 0,
			Branch: true,
		})
	}
	b.add().relu()
}

// ResNet18 returns the 18-layer residual network for ImageNet.
func ResNet18() *Network {
	b := newBuilder("ResNet18", 3, 224, 224, 1000)
	b.conv(64, 7, 2, 3).relu().maxpool(3, 2, 1)
	for _, stage := range []struct{ c, n, s int }{
		{64, 2, 1}, {128, 2, 2}, {256, 2, 2}, {512, 2, 2},
	} {
		for i := 0; i < stage.n; i++ {
			s := 1
			if i == 0 {
				s = stage.s
			}
			basicBlock(b, stage.c, s)
		}
	}
	b.gap().fc(1000)
	return b.build()
}

// ResNet50 returns the 50-layer bottleneck residual network for ImageNet.
func ResNet50() *Network {
	b := newBuilder("ResNet50", 3, 224, 224, 1000)
	b.conv(64, 7, 2, 3).relu().maxpool(3, 2, 1)
	for _, stage := range []struct{ c, n, s int }{
		{64, 3, 1}, {128, 4, 2}, {256, 6, 2}, {512, 3, 2},
	} {
		for i := 0; i < stage.n; i++ {
			s := 1
			if i == 0 {
				s = stage.s
			}
			bottleneckBlock(b, stage.c, s)
		}
	}
	b.gap().fc(1000)
	return b.build()
}

// ResNet18CIFAR is the CIFAR-10 adaptation (3×3 stem, no max-pool) used in
// the Fig. 6 motivation experiment.
func ResNet18CIFAR() *Network {
	b := newBuilder("ResNet18-CIFAR", 3, 32, 32, 10)
	b.conv(64, 3, 1, 1).relu()
	for _, stage := range []struct{ c, n, s int }{
		{64, 2, 1}, {128, 2, 2}, {256, 2, 2}, {512, 2, 2},
	} {
		for i := 0; i < stage.n; i++ {
			s := 1
			if i == 0 {
				s = stage.s
			}
			basicBlock(b, stage.c, s)
		}
	}
	b.gap().fc(10)
	return b.build()
}

// invertedResidual appends a MobileNetV2 inverted-residual block: pointwise
// expansion (factor t), 3×3 depthwise, pointwise linear projection.
func invertedResidual(b *builder, t, outC, stride, kernel int) {
	inC := b.c
	residual := stride == 1 && inC == outC
	if t != 1 {
		b.conv(inC*t, 1, 1, 0).relu()
	}
	b.dwconv(kernel, stride, kernel/2).relu()
	b.conv(outC, 1, 1, 0)
	if residual {
		b.add()
	}
}

// MobileNetV2 returns the MobileNetV2 topology (Sandler et al., CVPR 2018)
// for ImageNet, one of the paper's two "light models".
func MobileNetV2() *Network {
	b := newBuilder("MobileNetV2", 3, 224, 224, 1000)
	b.conv(32, 3, 2, 1).relu()
	for _, blk := range []struct{ t, c, n, s int }{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	} {
		for i := 0; i < blk.n; i++ {
			s := 1
			if i == 0 {
				s = blk.s
			}
			invertedResidual(b, blk.t, blk.c, s, 3)
		}
	}
	b.conv(1280, 1, 1, 0).relu().gap().fc(1000)
	return b.build()
}

// MNasNet returns the MnasNet-B1 topology (Tan et al., CVPR 2019) for
// ImageNet, the paper's second light model.
func MNasNet() *Network {
	b := newBuilder("MNasNet", 3, 224, 224, 1000)
	b.conv(32, 3, 2, 1).relu()
	// SepConv: depthwise 3×3 + pointwise to 16.
	b.dwconv(3, 1, 1).relu().conv(16, 1, 1, 0)
	for _, blk := range []struct{ t, k, c, n, s int }{
		{3, 3, 24, 3, 2},
		{3, 5, 40, 3, 2},
		{6, 5, 80, 3, 2},
		{6, 3, 96, 2, 1},
		{6, 5, 192, 4, 2},
		{6, 3, 320, 1, 1},
	} {
		for i := 0; i < blk.n; i++ {
			s := 1
			if i == 0 {
				s = blk.s
			}
			invertedResidual(b, blk.t, blk.c, s, blk.k)
		}
	}
	b.conv(1280, 1, 1, 0).relu().gap().fc(1000)
	return b.build()
}

// AlexNet returns the 2012 ImageNet winner (Krizhevsky et al.), included
// for zoo breadth beyond the paper's six evaluation networks.
func AlexNet() *Network {
	b := newBuilder("AlexNet", 3, 224, 224, 1000)
	b.conv(64, 11, 4, 2).relu().maxpool(3, 2, 0)
	b.conv(192, 5, 1, 2).relu().maxpool(3, 2, 0)
	b.conv(384, 3, 1, 1).relu()
	b.conv(256, 3, 1, 1).relu()
	b.conv(256, 3, 1, 1).relu().maxpool(3, 2, 0)
	b.fc(4096).relu().fc(4096).relu().fc(1000)
	return b.build()
}

// LeNet5 returns the classic LeNet-5 digit classifier (LeCun et al., 1998),
// referenced by the paper's Limitation 2 discussion (240 KB of weights).
func LeNet5() *Network {
	b := newBuilder("LeNet5", 1, 32, 32, 10)
	b.conv(6, 5, 1, 0).relu().maxpool(2, 2, 0)
	b.conv(16, 5, 1, 0).relu().maxpool(2, 2, 0)
	b.fc(120).relu().fc(84).relu().fc(10)
	return b.build()
}

// PaperModels returns the six ImageNet networks of the paper's evaluation
// in presentation order (VGGs, ResNets, then light models).
func PaperModels() []*Network {
	return []*Network{VGG16(), VGG19(), ResNet18(), ResNet50(), MobileNetV2(), MNasNet()}
}

// HeavyModels returns the four regular-convolution networks (the paper
// discusses light models separately).
func HeavyModels() []*Network {
	return []*Network{VGG16(), VGG19(), ResNet18(), ResNet50()}
}

// LightModels returns the depthwise/pointwise networks.
func LightModels() []*Network {
	return []*Network{MobileNetV2(), MNasNet()}
}

// zooTable is every named network, built once and shared: list keeps
// the listing order, byName indexes the same instances.
type zooTable struct {
	list   []*Network
	byName map[string]*Network
}

var zoo = sync.OnceValue(func() zooTable {
	list := append(PaperModels(), VGG16CIFAR(), ResNet18CIFAR(), LeNet5(), AlexNet())
	byName := make(map[string]*Network, len(list))
	for _, n := range list {
		byName[n.Name] = n
	}
	return zooTable{list: list, byName: byName}
})

// Zoo returns every named network in listing order (the paper models,
// the CIFAR adaptations, LeNet5, AlexNet). The networks are the shared
// instances ByName returns and are read-only.
func Zoo() []*Network { return slices.Clone(zoo().list) }

// ByName looks up a zoo network by case-sensitive name. The network is
// built once per process and shared by every caller, so it is read-only:
// callers must not modify it or its Layers. Copy it before changing it.
func ByName(name string) (*Network, error) {
	if n, ok := zoo().byName[name]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("nn: unknown network %q", name)
}
