package rram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/inca-arch/inca/internal/tensor"
)

func TestDefaultDeviceMatchesTableII(t *testing.T) {
	d := DefaultDevice()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.ROn != 240e3 || d.ROff != 24e6 {
		t.Fatal("on/off resistance mismatch with Table II")
	}
	if d.ReadPulse != 10e-9 || d.WritePulse != 50e-9 {
		t.Fatal("pulse widths mismatch with Table II")
	}
	// Read energy of an on cell: 1.03 µW × 10 ns = 10.3 fJ.
	if got := d.ReadEnergyOn(); math.Abs(got-10.3e-15)/10.3e-15 > 1e-9 {
		t.Fatalf("ReadEnergyOn = %v, want 10.3fJ", got)
	}
	if d.OnOffRatio() != 100 {
		t.Fatalf("on/off ratio = %v, want 100", d.OnOffRatio())
	}
	// Writing costs more than reading (the asymmetry §V.B.2 discusses).
	if d.WriteEnergy() <= d.ReadEnergyOn() {
		t.Fatal("write energy should exceed read energy")
	}
}

func TestDeviceConductanceRoundTrip(t *testing.T) {
	d := DefaultDevice()
	for _, v := range []float64{0, 0.25, 0.5, 1} {
		if got := d.Value(d.Conductance(v)); math.Abs(got-v) > 1e-12 {
			t.Fatalf("Value(Conductance(%v)) = %v", v, got)
		}
	}
	// Clamping.
	if d.Conductance(2) != d.Conductance(1) {
		t.Fatal("over-range value should clamp")
	}
	if d.Conductance(-1) != d.Conductance(0) {
		t.Fatal("under-range value should clamp")
	}
}

func TestDeviceValidateCatchesBadParams(t *testing.T) {
	d := DefaultDevice()
	d.ROff = d.ROn
	if d.Validate() == nil {
		t.Fatal("Validate accepted ROff == ROn")
	}
	d = DefaultDevice()
	d.WriteVoltage = 0.1
	if d.Validate() == nil {
		t.Fatal("Validate accepted write voltage below read voltage")
	}
}

func TestWearTracking(t *testing.T) {
	w := NewWear(4, 3)
	for i := 0; i < 3; i++ {
		if !w.RecordWrite(0) {
			t.Fatal("writes within budget reported as failure")
		}
	}
	if w.RecordWrite(0) {
		t.Fatal("write beyond endurance budget should report failure")
	}
	if w.MaxWrites() != 4 {
		t.Fatalf("MaxWrites = %d, want 4", w.MaxWrites())
	}
	if w.TotalWrites() != 4 {
		t.Fatalf("TotalWrites = %d, want 4", w.TotalWrites())
	}
	if w.RemainingFraction() != 0 {
		t.Fatalf("RemainingFraction = %v, want 0", w.RemainingFraction())
	}
	unchecked := NewWear(1, 0)
	unchecked.RecordWrite(0)
	if unchecked.RemainingFraction() != 1 {
		t.Fatal("disabled endurance should report full budget")
	}
}

func TestNoiseModelZeroSigmaIsIdentity(t *testing.T) {
	n := NewNoiseModel(0, 1)
	x := tensor.FromSlice([]float64{1, -2, 3}, 3)
	if !n.PerturbTensor(x).Equal(x, 0) {
		t.Fatal("zero-sigma noise changed values")
	}
}

func TestNoiseModelStatistics(t *testing.T) {
	n := NewNoiseModel(0.05, 42)
	const trials = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		d := n.Perturb(0, 1) // pure noise
		sum += d
		sumSq += d * d
	}
	mean := sum / trials
	std := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Fatalf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.05) > 0.003 {
		t.Fatalf("noise std = %v, want ~0.05", std)
	}
}

func TestNoiseModelNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNoiseModel(-0.1, 1)
}

// TestCrossbarMVMMatchesMatVec validates the WS array's functional
// behaviour against the tensor reference.
// PerturbTensorInto must draw exactly PerturbTensor's stream, into a
// reused destination or a fresh one, so that the training engine's
// scratch reuse moves no RNG draw.
func TestPerturbTensorIntoMatchesPerturbTensor(t *testing.T) {
	x := tensor.Randn(rand.New(rand.NewSource(5)), 1, 3, 4, 5)
	stale := tensor.New(3, 4, 5)
	stale.Fill(math.NaN())
	for _, dst := range []*tensor.Tensor{nil, stale, tensor.New(60)} {
		ref, n := NewNoiseModel(0.05, 17), NewNoiseModel(0.05, 17)
		want, got := ref.PerturbTensor(x), n.PerturbTensorInto(dst, x)
		if got.Rank() != 3 || (dst == stale) != (got == stale) {
			t.Fatalf("destination %v: got shape %v, reused %v", dst, got.Dims(), got == stale)
		}
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("destination %v: element %d is %v, want %v", dst, i, got.Data()[i], v)
			}
		}
		if a, b := ref.Perturb(0, 1), n.Perturb(0, 1); a != b {
			t.Fatalf("destination %v: the next draw is %v, want %v", dst, b, a)
		}
	}
}

func TestCrossbarMVMMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := tensor.Randn(rng, 1, 16, 8)
	x := tensor.Randn(rng, 1, 16)
	c := NewCrossbar(16, 8)
	c.Program(w)
	got := c.MVM(x)
	// Reference: wT x computed per column.
	want := tensor.New(8)
	for col := 0; col < 8; col++ {
		s := 0.0
		for row := 0; row < 16; row++ {
			s += x.At(row) * w.At(row, col)
		}
		want.Set(s, col)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatalf("MVM = %v, want %v", got, want)
	}
}

func TestCrossbarStats(t *testing.T) {
	c := NewCrossbar(4, 4)
	w := tensor.New(4, 4)
	w.Fill(1)
	c.Program(w)
	c.MVM(tensor.FromSlice([]float64{1, 1, 1, 1}, 4))
	c.MVM(tensor.FromSlice([]float64{1, 1, 1, 1}, 4))
	s := c.Stats()
	if s.CellWrites != 16 {
		t.Fatalf("CellWrites = %d, want 16", s.CellWrites)
	}
	if s.CellReads != 32 {
		t.Fatalf("CellReads = %d, want 32", s.CellReads)
	}
	if s.Outputs != 8 {
		t.Fatalf("Outputs = %d, want 8", s.Outputs)
	}
}

func TestCrossbarUsedFraction(t *testing.T) {
	c := NewCrossbar(4, 4)
	w := tensor.New(4, 4)
	w.Set(1, 0, 0)
	w.Set(1, 1, 1)
	c.Program(w)
	if got := c.UsedFraction(); math.Abs(got-2.0/16) > 1e-12 {
		t.Fatalf("UsedFraction = %v, want 0.125", got)
	}
}

func TestCrossbarNoiseDisturbsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := tensor.Randn(rng, 1, 8, 8)
	x := tensor.Randn(rng, 1, 8)
	clean := NewCrossbar(8, 8)
	clean.Program(w)
	noisy := NewCrossbar(8, 8)
	noisy.SetNoise(NewNoiseModel(0.05, 99))
	noisy.Program(w)
	if clean.MVM(x).Equal(noisy.MVM(x), 1e-6) {
		t.Fatal("noisy crossbar produced identical output")
	}
}

func TestUniformQuantizer(t *testing.T) {
	q := UniformQuantizer(4, 8) // 8 levels each side, step 1
	if got := q(3.4); got != 3 {
		t.Fatalf("q(3.4) = %v, want 3", got)
	}
	if got := q(-3.6); got != -4 {
		t.Fatalf("q(-3.6) = %v, want -4", got)
	}
	if got := q(100); got != 8 {
		t.Fatalf("q(100) = %v, want clamp to 8", got)
	}
	if got := q(0); got != 0 {
		t.Fatalf("q(0) = %v, want 0", got)
	}
}

// TestPlaneDirectConvolutionMatchesTensor is the central functional claim
// of the paper: the 2T1R plane computes the same direct convolution as the
// mathematical definition (single channel).
func TestPlaneDirectConvolutionMatchesTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cse := range []struct{ h, w, k, s int }{
		{6, 6, 3, 1}, {8, 8, 3, 2}, {5, 7, 2, 1}, {9, 9, 5, 2},
	} {
		x2 := tensor.Randn(rng, 1, cse.h, cse.w)
		k2 := tensor.Randn(rng, 1, cse.k, cse.k)
		p := NewPlane(cse.h, cse.w)
		p.Write(x2)
		got := p.Convolve(k2, cse.h, cse.w, cse.s)

		// Reference via tensor.Conv2D with 1 channel / 1 kernel.
		x3 := x2.Reshape(1, cse.h, cse.w)
		k4 := k2.Reshape(1, 1, cse.k, cse.k)
		want3 := tensor.Conv2D(x3, k4, tensor.ConvSpec{Stride: cse.s})
		want := want3.Reshape(want3.Dim(1), want3.Dim(2))
		if !got.Equal(want, 1e-9) {
			t.Fatalf("case %+v: plane conv mismatch", cse)
		}
	}
}

func TestPlaneReadWindowBounds(t *testing.T) {
	p := NewPlane(4, 4)
	k := tensor.New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds window")
		}
	}()
	p.ReadWindow(k, 2, 2)
}

func TestPlaneOverwriteRecyclesCells(t *testing.T) {
	p := NewPlane(3, 3)
	a := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3)
	p.Write(a)
	e := tensor.FromSlice([]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 3, 3)
	p.Overwrite(e)
	if p.At(0, 0) != 9 || p.At(2, 2) != 1 {
		t.Fatal("Overwrite did not replace stored activations")
	}
	if p.Stats().CellWrites != 18 {
		t.Fatalf("CellWrites = %d, want 18", p.Stats().CellWrites)
	}
}

func TestPlanePartialWriteKeepsRest(t *testing.T) {
	p := NewPlane(4, 4)
	full := tensor.New(4, 4)
	full.Fill(5)
	p.Write(full)
	small := tensor.New(2, 2)
	small.Fill(1)
	p.Write(small)
	if p.At(0, 0) != 1 || p.At(3, 3) != 5 {
		t.Fatal("partial write should only touch its region")
	}
}

// TestStackBatchParallel verifies the 3D claim: one kernel read returns
// one output per plane, each equal to that plane's own convolution.
func TestStackBatchParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const batch, h, w, k = 4, 6, 6, 3
	s := NewStack(batch, h, w)
	images := make([]*tensor.Tensor, batch)
	for i := range images {
		images[i] = tensor.Randn(rng, 1, h, w)
		s.WriteImage(i, images[i])
	}
	kern := tensor.Randn(rng, 1, k, k)
	outs := s.ConvolveAll(kern, h, w, 1)
	if len(outs) != batch {
		t.Fatalf("got %d outputs, want %d", len(outs), batch)
	}
	for i := range outs {
		solo := NewPlane(h, w)
		solo.Write(images[i])
		want := solo.Convolve(kern, h, w, 1)
		if !outs[i].Equal(want, 1e-12) {
			t.Fatalf("plane %d output differs from standalone plane", i)
		}
	}
}

func TestStackStatsAggregate(t *testing.T) {
	s := NewStack(2, 4, 4)
	img := tensor.New(4, 4)
	img.Fill(1)
	s.WriteImage(0, img)
	s.WriteImage(1, img)
	k := tensor.New(2, 2)
	k.Fill(1)
	s.ConvolveAll(k, 4, 4, 1)
	st := s.Stats()
	if st.CellWrites != 32 {
		t.Fatalf("CellWrites = %d, want 32", st.CellWrites)
	}
	// 9 windows × 4 cells × 2 planes.
	if st.CellReads != 72 {
		t.Fatalf("CellReads = %d, want 72", st.CellReads)
	}
	if st.Outputs != 18 {
		t.Fatalf("Outputs = %d, want 18", st.Outputs)
	}
}

// PROPERTY: the plane's sliding convolution agrees with tensor.Conv2D for
// random geometries — direct convolution in RRAM is exact.
func TestPropertyPlaneConvMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		h := k + rng.Intn(6)
		w := k + rng.Intn(6)
		s := 1 + rng.Intn(2)
		x2 := tensor.Randn(rng, 1, h, w)
		k2 := tensor.Randn(rng, 1, k, k)
		p := NewPlane(h, w)
		p.Write(x2)
		got := p.Convolve(k2, h, w, s)
		want3 := tensor.Conv2D(x2.Reshape(1, h, w), k2.Reshape(1, 1, k, k), tensor.ConvSpec{Stride: s})
		return got.Equal(want3.Reshape(want3.Dim(1), want3.Dim(2)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// PROPERTY: quantized MVM error is bounded by half an LSB per column for
// in-range currents.
func TestPropertyQuantizerErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 3 + rng.Intn(6)
		fs := 1 + rng.Float64()*10
		q := UniformQuantizer(bits, fs)
		step := fs / float64(int64(1)<<(bits-1))
		v := (rng.Float64()*2 - 1) * fs
		return math.Abs(q(v)-v) <= step/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// PROPERTY: stack read outputs are independent per plane — writing one
// plane never changes another plane's result.
func TestPropertyStackPlaneIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStack(3, 5, 5)
		img := tensor.Randn(rng, 1, 5, 5)
		s.WriteImage(0, img)
		k := tensor.Randn(rng, 1, 2, 2)
		before := s.Planes[0].Convolve(k, 5, 5, 1)
		s.WriteImage(1, tensor.Randn(rng, 1, 5, 5))
		s.WriteImage(2, tensor.Randn(rng, 1, 5, 5))
		after := s.Planes[0].Convolve(k, 5, 5, 1)
		return before.Equal(after, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
