package inca

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/train"
)

// simulate runs one analytical simulation on a machine built through
// the registry, failing tb on any error.
func simulate(tb testing.TB, dataflowID string, cfg Config, net *Network, phase Phase) *Report {
	tb.Helper()
	m, err := NewMachine(dataflowID, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := m.Simulate(context.Background(), net, phase)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func TestFacadeModels(t *testing.T) {
	if len(Models()) != 6 {
		t.Fatalf("Models() = %d networks, want 6", len(Models()))
	}
	net, err := Model("VGG16")
	if err != nil || net.Name != "VGG16" {
		t.Fatalf("Model(VGG16) = %v, %v", net, err)
	}
	if _, err := Model("nope"); err == nil {
		t.Fatal("unknown model should error")
	}
}

// TestFacadeModelIsPrivateCopy pins Model's contract over the shared
// zoo: the caller owns the returned network, so editing it (fields or
// layers) leaves the instance the service resolves untouched.
func TestFacadeModelIsPrivateCopy(t *testing.T) {
	fresh := nn.LeNet5()
	net, err := Model("LeNet5")
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := nn.ByName("LeNet5")
	if net == shared {
		t.Fatal("Model returned the shared zoo instance")
	}
	net.Name = "edited"
	net.Layers[0].OutC = 99
	net.Layers = append(net.Layers[:1], net.Layers[2:]...)
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatal("editing Model's network changed nn.ByName's copy")
	}
}

func TestFacadeSimulateAndCompare(t *testing.T) {
	net, _ := Model("ResNet18")
	inca := simulate(t, "is", DefaultINCA(), net, Inference)
	base := simulate(t, "ws", DefaultBaseline(), net, Inference)
	cmp := Compare(inca, base)
	if cmp.EnergyRatio <= 1 || cmp.Speedup <= 1 {
		t.Fatalf("INCA should win both: %+v", cmp)
	}
	if cmp.PerfPerWatt != cmp.EnergyRatio*cmp.Speedup {
		t.Fatal("PerfPerWatt should be the product")
	}
}

func TestFacadeGPU(t *testing.T) {
	net, _ := Model("VGG16")
	rep := simulate(t, "gpu", Config{}, net, Training)
	if rep.Total.Latency <= 0 || rep.Total.Energy.Total() <= 0 {
		t.Fatal("GPU simulation empty")
	}
	if GPUArea() != 754 {
		t.Fatalf("GPUArea = %v, want 754", GPUArea())
	}
}

func TestFacadeAnalyticalCounts(t *testing.T) {
	net, _ := Model("VGG16")
	ac := CountAccesses(net, 8, 256)
	if ac.Baseline <= ac.INCA {
		t.Fatal("WS should need more accesses than IS")
	}
	ub := CountUnroll(net)
	if ub.Ratio() <= 1 {
		t.Fatal("unrolled demand should exceed direct")
	}
}

func TestFacadeAreas(t *testing.T) {
	inca := DefaultINCA().Area()
	base := DefaultBaseline().Area()
	if inca.Total() >= base.Total() {
		t.Fatalf("INCA area %.1f should be below baseline %.1f (Table V)",
			inca.Total(), base.Total())
	}
}

func TestFacadeMemoryFootprint(t *testing.T) {
	net, _ := Model("VGG16")
	f, err := MemoryFootprint(net)
	if err != nil {
		t.Fatal(err)
	}
	// Table IV: baseline RRAM = 2W + A; INCA RRAM = A; buffers swap.
	if f.BaselineRRAM <= f.INCARRAM {
		t.Fatal("baseline RRAM must exceed INCA's (transposed weights + errors)")
	}
	if f.BaselineBuffer != f.INCARRAM || f.INCABuffer >= f.BaselineRRAM {
		t.Fatalf("footprint structure wrong: %+v", f)
	}
}

func TestFacadeTrainingAPIs(t *testing.T) {
	cfg := DefaultDataConfig()
	cfg.PerClass = 8
	ds := SyntheticDataset(cfg)
	if ds.Len() != 80 {
		t.Fatalf("dataset len = %d", ds.Len())
	}
	net := BuildClassifier(WithSeed(1), WithInputShape(1, cfg.H, cfg.W), WithClasses(cfg.Classes))
	acc := ClassifierAccuracy(net, ds)
	if acc < 0 || acc > 100 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
	tr := &Trainer{Net: net, LR: 0.02}
	if loss := tr.Train(ds, 1); loss <= 0 {
		t.Fatalf("training loss = %v", loss)
	}
}

func TestFacadeFunctionalConvsAgree(t *testing.T) {
	x := RandnTensor(1, 1, 2, 8, 8)
	w := RandnTensor(2, 0.5, 3, 2, 3, 3)
	is := INCAFunctionalConv([]*Tensor{x}, w, INCAArrayOptions{Stride: 1, Pad: 1})[0]
	ws := WSFunctionalConv(x, w, WSArrayOptions{Stride: 1, Pad: 1})
	if !is.Equal(ws, 1e-9) {
		t.Fatal("functional paths disagree through the facade")
	}
}

func TestFacadeInSitu(t *testing.T) {
	net := BuildClassifier(WithSeed(2), WithInputShape(1, 12, 12), WithClasses(3))
	m := NewInSitu(InSituOptions{})
	x := RandnTensor(3, 1, 1, 12, 12)
	hw := m.Forward(net, x)
	sw := net.Forward(x)
	if !hw.Equal(sw, 1e-9) {
		t.Fatal("in-situ forward should match software forward")
	}
}

func TestFacadePlacement(t *testing.T) {
	net, _ := Model("LeNet5")
	p := PlaceNetwork(DefaultINCA(), net)
	if len(p.Assignments) != len(net.ComputeLayers()) {
		t.Fatalf("placement covers %d layers, want %d",
			len(p.Assignments), len(net.ComputeLayers()))
	}
	if p.Rounds != 1 {
		t.Fatalf("LeNet5 should fit in one chip pass, got %d rounds", p.Rounds)
	}
}

func TestFacadeLoadConfig(t *testing.T) {
	path := t.TempDir() + "/cfg.json"
	cfg := DefaultBaseline()
	cfg.ADCBits = 6
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil || got.ADCBits != 6 || got.Name != "WS-Baseline" {
		t.Fatalf("LoadConfig = %+v, %v", got, err)
	}
	if _, err := LoadConfig(path + ".missing"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFacadeTimeline(t *testing.T) {
	net, _ := Model("LeNet5")
	base := simulate(t, "ws", DefaultBaseline(), net, Inference)
	g, err := Timeline(base, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) < 100 || g == "(empty schedule)\n" {
		t.Fatalf("timeline too small:\n%s", g)
	}
	inca := simulate(t, "is", DefaultINCA(), net, Inference)
	gi, err := Timeline(inca, 4, 80)
	if err != nil || gi == g {
		t.Fatalf("INCA and baseline timelines should differ (err %v)", err)
	}
	trn := simulate(t, "ws", DefaultBaseline(), net, Training)
	gt, err := Timeline(trn, 2, 80)
	if err != nil || gt == g {
		t.Fatalf("training timeline should differ from inference (err %v)", err)
	}
}

func TestFacadeErrorSentinels(t *testing.T) {
	if _, err := Timeline(nil, 4, 80); !errors.Is(err, ErrEmptyReport) {
		t.Fatalf("Timeline(nil) err = %v, want ErrEmptyReport", err)
	}
	if _, err := Timeline(&Report{}, 4, 80); !errors.Is(err, ErrEmptyReport) {
		t.Fatalf("Timeline(layerless) err = %v, want ErrEmptyReport", err)
	}
	net, _ := Model("LeNet5")
	rep := simulate(t, "is", DefaultINCA(), net, Inference)
	zeroBatch := *rep
	zeroBatch.Batch = 0
	if _, err := Timeline(&zeroBatch, 4, 80); !errors.Is(err, ErrZeroBatch) {
		t.Fatalf("Timeline(zero batch) err = %v, want ErrZeroBatch", err)
	}
	if _, err := MemoryFootprint(nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("MemoryFootprint(nil) err = %v, want ErrNilNetwork", err)
	}
	if _, err := MemoryFootprint(&Network{Name: "empty"}); !errors.Is(err, ErrEmptyNetwork) {
		t.Fatalf("MemoryFootprint(empty) err = %v, want ErrEmptyNetwork", err)
	}
	if _, err := zeroBatch.EnergyPerImage(); !errors.Is(err, ErrZeroBatch) {
		t.Fatalf("EnergyPerImage(zero batch) err = %v, want ErrZeroBatch", err)
	}
}

func TestFacadeSimulatorV2(t *testing.T) {
	ctx := context.Background()
	s, err := NewMachine("is", DefaultINCA())
	if err != nil {
		t.Fatal(err)
	}
	net, _ := Model("ResNet18")
	rep, err := s.Simulate(ctx, net, Inference)
	if err != nil || rep.Arch != "INCA" {
		t.Fatalf("Simulate = %v, %v", rep, err)
	}
	ws, err := NewMachine("ws", DefaultBaseline())
	if err != nil {
		t.Fatal(err)
	}
	wsRep, err := ws.Simulate(ctx, net, Training)
	if err != nil || wsRep.Arch != "WS-Baseline" {
		t.Fatalf("baseline Simulate = %v, %v", wsRep, err)
	}
	gpu, err := NewMachine("gpu", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpu.Simulate(ctx, net, Training); err != nil {
		t.Fatalf("gpu Simulate err = %v", err)
	}

	if _, err := s.Simulate(ctx, nil, Inference); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network err = %v, want ErrNilNetwork", err)
	}
	if _, err := s.Simulate(ctx, net, Phase(99)); err == nil {
		t.Fatal("unknown phase should error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Simulate(cancelled, net, Inference); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx err = %v, want context.Canceled", err)
	}
	bad := DefaultINCA()
	bad.BatchSize = 0
	if _, err := NewMachine("is", bad); err == nil {
		t.Fatal("invalid config should error instead of panicking")
	}
}

func TestFacadeFunctionalOptions(t *testing.T) {
	// Each option reaches the constructor it configures.
	a := BuildClassifier(WithSeed(7), WithInputShape(1, 12, 12), WithClasses(3))
	b := train.SmallCNN(rand.New(rand.NewSource(7)), 1, 12, 12, 3)
	x := RandnTensor(5, 1, 1, 12, 12)
	if !a.Forward(x).Equal(b.Forward(x), 0) {
		t.Fatal("BuildClassifier ignores its options")
	}
	n1 := BuildNoiseModel(WithNoise(0.02), WithSeed(3))
	n2 := rram.NewNoiseModel(0.02, 3)
	if n1.Perturb(1, 1) != n2.Perturb(1, 1) {
		t.Fatal("BuildNoiseModel ignores its options")
	}
	// Defaults pair with the synthetic dataset.
	ds := SyntheticDataset(DefaultDataConfig())
	if acc := ClassifierAccuracy(BuildClassifier(), ds); acc < 0 || acc > 100 {
		t.Fatalf("default BuildClassifier accuracy out of range: %v", acc)
	}
}

func TestFacadeEndurance(t *testing.T) {
	devs := DeviceCandidates()
	if len(devs) != 4 {
		t.Fatalf("device candidates = %d, want 4", len(devs))
	}
	p := AnalyzeEndurance("INCA", Training, devs[0], 0.1)
	if p.WritesPerCellPerBatch != 2 {
		t.Fatalf("IS training writes/cell/batch = %v, want 2", p.WritesPerCellPerBatch)
	}
	ws := AnalyzeEndurance("WS-Baseline", Training, devs[0], 0.1)
	if ws.LifetimeSeconds <= p.LifetimeSeconds {
		t.Fatal("WS training should outlast IS on the same device")
	}
}

func TestFacadeFaultInjectionAndRetry(t *testing.T) {
	// A sweep under 30% injected transient faults completes via retries
	// with byte-identical results to a fault-free run.
	lenet, err := Model("LeNet5")
	if err != nil {
		t.Fatal(err)
	}
	plan := SweepPlan{
		Archs:    []SweepArch{SweepINCA()},
		Networks: []*Network{lenet},
		Phases:   []Phase{Inference, Training},
	}
	clean, err := RunSweep(context.Background(), plan, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	inj := NewFaultInjector(42)
	inj.Add(FaultRule{Site: "sweep/cell/*", Kind: FaultError, Prob: 0.3})
	retried, err := RunSweep(context.Background(), plan, SweepOptions{
		Inject: inj,
		Retry:  SweepRetryPolicy{MaxAttempts: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(retried) != len(clean) {
		t.Fatalf("cell counts differ: %d vs %d", len(retried), len(clean))
	}
	for i := range retried {
		if retried[i].Err != nil {
			t.Fatalf("cell %d failed despite retries: %v", i, retried[i].Err)
		}
		if retried[i].Report.Total != clean[i].Report.Total {
			t.Fatalf("cell %d diverged under injected faults", i)
		}
	}

	if !IsTransient(MarkTransient(errors.New("flaky"))) {
		t.Fatal("MarkTransient/IsTransient disagree")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("unmarked error classified transient")
	}
}

func TestFacadeClientConstruction(t *testing.T) {
	c, err := NewClient("http://127.0.0.1:1", ClientOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Models(context.Background()); err == nil {
		t.Fatal("dead endpoint answered")
	}
	if _, err := NewClient("not a url", ClientOptions{}); err == nil {
		t.Fatal("bad base URL accepted")
	}
	var apiErr *APIError
	wrapped := error(&APIError{Status: 503, Message: "saturated"})
	if !errors.As(wrapped, &apiErr) || !IsTransient(wrapped) {
		t.Fatal("503 APIError should classify transient")
	}
	if IsTransient(&APIError{Status: 400}) {
		t.Fatal("400 APIError should be terminal")
	}
}

func TestFacadeStuckFaultAccuracy(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Data.PerClass = 24
	cfg.PretrainEpochs = 4
	rows := StuckFaultAccuracy(cfg, []float64{0, 0.5})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Stuck != 0 || rows[0].Accuracy != rows[0].Clean {
		t.Fatalf("rate 0 should be the clean model: %+v", rows[0])
	}
	if rows[1].Stuck == 0 || rows[1].Accuracy >= rows[1].Clean {
		t.Fatalf("half-dead devices did not hurt accuracy: %+v", rows[1])
	}
}
