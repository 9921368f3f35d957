// Package inca is the public API of the INCA reproduction: an
// input-stationary (IS) RRAM crossbar accelerator simulator with its
// weight-stationary (WS) baseline, GPU reference model, DNN model zoo,
// and the accuracy experiments of the paper
//
//	"INCA: Input-stationary Dataflow at Outside-the-box Thinking about
//	 Deep Learning Accelerators", Kim, Li & Li, HPCA 2023.
//
// Quickstart (v3 API — dataflow registry, context-aware):
//
//	sim, err := inca.NewMachine("is", inca.Config{})
//	net, _ := inca.Model("ResNet18")
//	rep, err := sim.Simulate(ctx, net, inca.Inference)
//	fmt.Println(rep)
//
// Compare against the WS baseline:
//
//	base, _ := inca.NewMachine("ws", inca.Config{})
//	baseRep, _ := base.Simulate(ctx, net, inca.Inference)
//	cmp := inca.Compare(rep, baseRep)
//	fmt.Printf("%.1fx energy, %.1fx speed\n", cmp.EnergyRatio, cmp.Speedup)
//
// Machines are constructed through the pluggable dataflow registry —
// input-stationary ("is"), weight-stationary ("ws"), output-stationary
// ("os"), and the GPU roofline ("gpu") are peers; Dataflows() lists
// them. TuneSearch runs the mapping auto-tuner over the registry and
// returns per-network Pareto frontiers (energy × latency × area).
package inca

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"slices"

	"github.com/inca-arch/inca/internal/access"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/baseline"
	"github.com/inca-arch/inca/internal/client"
	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/endure"
	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/gpu"
	"github.com/inca-arch/inca/internal/insitu"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/place"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/sched"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
	"github.com/inca-arch/inca/internal/tune"
)

// Phase selects inference or training simulation.
type Phase = sim.Phase

// Simulation phases.
const (
	Inference = sim.Inference
	Training  = sim.Training
)

// Config is a full accelerator configuration (paper Table II).
type Config = arch.Config

// DefaultINCA returns the paper's INCA configuration: 16×16×64 3D 2T1R
// arrays, 4-bit ADCs shared 16-ways, 64 KB buffers, HBM2, batch 64.
func DefaultINCA() Config { return arch.INCA() }

// DefaultBaseline returns the paper's 2D WS baseline: 128×128 crossbars,
// 8-bit ADCs, the same memory system.
func DefaultBaseline() Config { return arch.Baseline() }

// DefaultOutStationary returns the output-stationary comparison point:
// iso-capacity with the WS baseline but operated MAC-DO-style, with
// in-array accumulators and both operands streaming.
func DefaultOutStationary() Config { return arch.OutStationary() }

// Network is a shape-level DNN description.
type Network = nn.Network

// Report is a simulated execution result.
type Report = sim.Report

// Area is a Table V-style area breakdown in mm².
type Area = metrics.Area

// Model returns a zoo network by name: VGG16, VGG19, ResNet18, ResNet50,
// MobileNetV2, MNasNet, VGG16-CIFAR, ResNet18-CIFAR, LeNet5.
func Model(name string) (*Network, error) {
	shared, err := nn.ByName(name)
	if err != nil {
		return nil, err
	}
	// The zoo instance is shared process-wide; hand out a private copy.
	net := *shared
	net.Layers = slices.Clone(shared.Layers)
	return &net, nil
}

// Models returns the six ImageNet networks of the paper's evaluation.
func Models() []*Network { return nn.PaperModels() }

// Sentinel errors of the v2 API. Test with errors.Is.
var (
	// ErrNilNetwork reports a nil network passed to Simulate.
	ErrNilNetwork = sim.ErrNilNetwork
	// ErrEmptyNetwork reports a network with no layers.
	ErrEmptyNetwork = sim.ErrEmptyNetwork
	// ErrEmptyReport reports a nil or layer-less report where per-layer
	// data is required (Timeline).
	ErrEmptyReport = sim.ErrEmptyReport
	// ErrZeroBatch reports a report whose batch size is not positive, so
	// per-image quantities are undefined.
	ErrZeroBatch = sim.ErrZeroBatch
	// ErrUnknownDataflow reports a NewMachine dataflow name no backend
	// registered (see Dataflows for the live list).
	ErrUnknownDataflow = dataflow.ErrUnknownDataflow
	// ErrUnsupportedPhase reports a simulation phase outside a
	// dataflow's capabilities (e.g. training on the output-stationary
	// backend).
	ErrUnsupportedPhase = dataflow.ErrUnsupportedPhase
)

// Simulator is the v2 simulation interface: it propagates context
// cancellation/deadlines and reports invalid input (nil networks,
// unknown phases) as errors instead of panicking. Implementations are
// safe for concurrent use; the sweep engine drives one from many
// goroutines.
type Simulator interface {
	Simulate(ctx context.Context, net *Network, phase Phase) (*Report, error)
}

// DataflowInfo describes one registered dataflow backend: its ID (the
// NewMachine name), display name, supported phases, and whether its
// configuration is tunable.
type DataflowInfo = dataflow.Capabilities

// Mapping is one point in a dataflow's mapping space: crossbar tile
// dimensions, 3D plane depth, and the loop order the backend applies.
// The zero Mapping is the backend's default configuration.
type Mapping = dataflow.Mapping

// Dataflows lists every registered dataflow backend, sorted by ID.
// The IDs are the names NewMachine accepts: "is" (input-stationary
// INCA), "ws" (weight-stationary baseline), "os" (output-stationary),
// "gpu" (Titan RTX roofline).
func Dataflows() []DataflowInfo {
	all := dataflow.All()
	infos := make([]DataflowInfo, len(all))
	for i, d := range all {
		// Backends share one Capabilities value per process; clone its
		// slices so callers cannot edit registry state through them.
		c := d.Caps
		c.Phases = slices.Clone(c.Phases)
		c.Aliases = slices.Clone(c.Aliases)
		infos[i] = c
	}
	return infos
}

// MachineOption configures NewMachine.
type MachineOption func(*machineOptions)

type machineOptions struct {
	batch   int
	mapping Mapping
}

// WithBatch overrides the configuration's batch size.
func WithBatch(n int) MachineOption { return func(o *machineOptions) { o.batch = n } }

// WithMapping applies a mapping point from the dataflow's search space
// (see TuneSearch) to the base configuration before construction.
func WithMapping(m Mapping) MachineOption { return func(o *machineOptions) { o.mapping = m } }

// NewMachine builds a simulator for a named dataflow backend from the
// registry. Passing the zero Config uses the dataflow's default
// configuration (the paper's design point); a non-zero Config is
// validated by the backend. Names are matched case-insensitively and
// legacy architecture names ("INCA", "WS-Baseline", "TitanRTX")
// normalize to their dataflow IDs. It returns ErrUnknownDataflow for an
// unregistered name.
//
//	m, err := inca.NewMachine("os", inca.Config{}, inca.WithBatch(8))
func NewMachine(dataflowID string, cfg Config, opts ...MachineOption) (Simulator, error) {
	d, err := dataflow.Get(dataflowID)
	if err != nil {
		return nil, err
	}
	var o machineOptions
	for _, opt := range opts {
		opt(&o)
	}
	if cfg == (Config{}) {
		cfg = d.Default
	}
	if !o.mapping.IsZero() {
		cfg = d.Apply(cfg, o.mapping)
	}
	if o.batch > 0 {
		cfg.BatchSize = o.batch
	}
	return d.New(cfg)
}

// GPUArea returns the GPU die area (mm²) for iso-area comparisons.
func GPUArea() float64 { return gpu.TitanRTX().AreaMM2 }

// Comparison summarizes an A-versus-B report pair. EnergyRatio and
// Speedup are B's cost over A's (>1 means A wins); PerfPerWatt is their
// product — the throughput-per-watt improvement the paper's Fig. 11
// reports as "energy efficiency".
type Comparison struct {
	EnergyRatio float64
	Speedup     float64
	PerfPerWatt float64
}

// Compare evaluates a against the reference b.
func Compare(a, b *Report) Comparison {
	e := a.Total.EnergyEfficiencyVs(b.Total)
	s := a.Total.SpeedupVs(b.Total)
	return Comparison{EnergyRatio: e, Speedup: s, PerfPerWatt: e * s}
}

// AccessCounts returns the Table III buffer-access estimates (Eq. 5/6)
// for a network at the given precision and bus width.
type AccessCounts = access.NetworkAccesses

// CountAccesses evaluates both dataflows' analytical access counts.
func CountAccesses(net *Network, precBits, busBits int64) AccessCounts {
	return access.CountNetwork(net, precBits, busBits)
}

// UnrollBlowup quantifies Fig. 7b's unrolled-versus-direct RRAM demand.
type UnrollBlowup = access.UnrollBlowup

// CountUnroll evaluates the Fig. 7b comparison for a network.
func CountUnroll(net *Network) UnrollBlowup { return access.CountUnroll(net) }

// Footprint is the Table IV minimum memory requirement (MB) for
// supporting both inference and training. In WS, RRAM must hold the
// original weights, their transposed copies, and the activations, while
// buffers stage the activations; in IS, RRAM holds only the activations
// (errors overwrite them) and buffers hold the weights.
type Footprint struct {
	Network                      string
	BaselineRRAM, BaselineBuffer float64
	INCARRAM, INCABuffer         float64
}

// MemoryFootprint evaluates Table IV's formulas for a network at 8-bit
// precision. It returns ErrNilNetwork for a nil network and
// ErrEmptyNetwork for one with no layers (instead of an all-zero
// Footprint).
func MemoryFootprint(net *Network) (Footprint, error) {
	if net == nil {
		return Footprint{}, ErrNilNetwork
	}
	if len(net.Layers) == 0 {
		return Footprint{}, ErrEmptyNetwork
	}
	const mb = 1024 * 1024
	w := float64(net.TotalWeights()) / mb
	a := float64(net.TotalActivations()) / mb
	return Footprint{
		Network:        net.Name,
		BaselineRRAM:   2*w + a,
		BaselineBuffer: a,
		INCARRAM:       a,
		INCABuffer:     w,
	}, nil
}

// Accuracy experiment re-exports (Tables I and VI).
type (
	// ExperimentConfig sizes the accuracy experiments.
	ExperimentConfig = train.ExperimentConfig
	// NoiseAccuracyRow is one Table VI row.
	NoiseAccuracyRow = train.NoiseAccuracyRow
	// BitDepthRow is one Table I column pair.
	BitDepthRow = train.BitDepthRow
)

// DefaultExperimentConfig mirrors the paper's accuracy protocol at the
// synthetic dataset's scale.
func DefaultExperimentConfig() ExperimentConfig { return train.DefaultExperimentConfig() }

// NoiseAccuracy reproduces Table VI: training accuracy under device noise
// of strength σ applied to weights (WS exposure) versus activations (IS
// exposure).
func NoiseAccuracy(cfg ExperimentConfig, sigmas []float64) []NoiseAccuracyRow {
	return train.NoiseAccuracyTable(cfg, sigmas)
}

// BitDepthAccuracy reproduces Table I: post-training quantization drops
// with one operand reduced below 8 bits.
func BitDepthAccuracy(cfg ExperimentConfig, bits []int) []BitDepthRow {
	return train.BitDepthTable(cfg, bits)
}

// --- Training engine (the software substrate behind Tables I and VI) ---

type (
	// Tensor is a dense float64 tensor (row-major).
	Tensor = tensor.Tensor
	// Classifier is a trainable layer stack.
	Classifier = train.Network
	// Trainer runs per-sample SGD with device-noise injection.
	Trainer = train.Trainer
	// Dataset is a labeled image collection.
	Dataset = data.Dataset
	// DataConfig controls synthetic dataset generation.
	DataConfig = data.Config
	// NoiseModel is the zero-centered device nonideality model.
	NoiseModel = rram.NoiseModel
)

// Noise injection targets for Trainer.
const (
	NoiseNone        = train.NoiseNone
	NoiseWeights     = train.NoiseWeights
	NoiseActivations = train.NoiseActivations
)

// NewTensor returns a zero tensor with the given dimensions.
func NewTensor(dims ...int) *Tensor { return tensor.New(dims...) }

// RandnTensor returns a tensor of N(0, stddev²) entries from a
// deterministic seed.
func RandnTensor(seed int64, stddev float64, dims ...int) *Tensor {
	return tensor.Randn(rand.New(rand.NewSource(seed)), stddev, dims...)
}

// SetKernelParallelism caps the process-wide worker budget shared by all
// tensor kernels (convolutions, matrix multiply, backward passes) and
// batch evaluation, returning the previous setting (0 when the budget was
// tracking GOMAXPROCS). n <= 0 restores GOMAXPROCS tracking. Results are
// byte-identical at every budget; see SweepOptions.KernelParallelism for
// combining kernel parallelism with the sweep engine's worker pool.
func SetKernelParallelism(n int) int { return tensor.SetParallelism(n) }

// KernelParallelism reports the current tensor-kernel worker budget.
func KernelParallelism() int { return tensor.Parallelism() }

// Option configures the functional-option constructors BuildClassifier
// and BuildNoiseModel. Options irrelevant to a constructor are ignored,
// so one option list can configure a whole experiment.
type Option func(*buildOptions)

type buildOptions struct {
	seed          int64
	sigma         float64
	inC, inH, inW int
	classes       int
}

// defaultBuildOptions mirrors DefaultDataConfig(): grayscale 16×16
// inputs, 10 classes, and the practically adopted 1% noise strength.
func defaultBuildOptions() buildOptions {
	d := data.DefaultConfig()
	return buildOptions{seed: 1, sigma: 0.01, inC: 1, inH: d.H, inW: d.W, classes: d.Classes}
}

// WithSeed sets the deterministic RNG seed (default 1).
func WithSeed(seed int64) Option { return func(o *buildOptions) { o.seed = seed } }

// WithNoise sets the relative device-noise strength σ (default 0.01).
func WithNoise(sigma float64) Option { return func(o *buildOptions) { o.sigma = sigma } }

// WithInputShape sets the classifier's input dimensions (default the
// synthetic dataset's 1×16×16).
func WithInputShape(c, h, w int) Option {
	return func(o *buildOptions) { o.inC, o.inH, o.inW = c, h, w }
}

// WithClasses sets the classifier's output class count (default 10).
func WithClasses(n int) Option { return func(o *buildOptions) { o.classes = n } }

// BuildClassifier constructs the compact experiment CNN from functional
// options; it replaces the positional NewClassifier. Unspecified options
// match DefaultDataConfig(), so BuildClassifier() pairs with
// SyntheticDataset(DefaultDataConfig()).
func BuildClassifier(opts ...Option) *Classifier {
	o := defaultBuildOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return train.SmallCNN(rand.New(rand.NewSource(o.seed)), o.inC, o.inH, o.inW, o.classes)
}

// BuildNoiseModel constructs a device nonideality model from functional
// options (WithNoise for σ, WithSeed for the RNG stream); it replaces
// the positional NewNoiseModel.
func BuildNoiseModel(opts ...Option) *NoiseModel {
	o := defaultBuildOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return rram.NewNoiseModel(o.sigma, o.seed)
}

// DefaultDataConfig returns the synthetic 10-class dataset configuration.
func DefaultDataConfig() DataConfig { return data.DefaultConfig() }

// SyntheticDataset generates the deterministic grating dataset.
func SyntheticDataset(cfg DataConfig) *Dataset { return data.Generate(cfg) }

// ClassifierAccuracy evaluates top-1 accuracy (percent).
func ClassifierAccuracy(net *Classifier, ds *Dataset) float64 {
	return train.Accuracy(net, ds)
}

// Placement is the §IV.C inter-layer mapping: layers sequentially
// assigned to macros, with fragmentation and time-multiplex accounting.
type Placement = place.Placement

// PlaceNetwork maps a network's compute layers onto an INCA configuration.
func PlaceNetwork(cfg Config, net *Network) Placement {
	return core.New(cfg).Placement(net)
}

// LoadConfig reads and validates an accelerator configuration from a JSON
// file (see Config.Save for the writer).
func LoadConfig(path string) (Config, error) { return arch.Load(path) }

// Timeline renders an ASCII Gantt chart of the report's layer schedule:
// the WS baseline pipelines images through layers in inference and
// serializes them in training, while INCA executes each layer once for
// the whole batch. items bounds how many images are drawn (legibility);
// width is the chart width in characters. It returns ErrEmptyReport for
// a nil or layer-less report and ErrZeroBatch when the report's batch
// size is not positive (the per-image stage latencies are undefined).
func Timeline(rep *Report, items, width int) (string, error) {
	if rep == nil || len(rep.Layers) == 0 {
		return "", ErrEmptyReport
	}
	if rep.Batch <= 0 {
		return "", ErrZeroBatch
	}
	stages := make([]sched.Stage, 0, len(rep.Layers))
	for _, lr := range rep.Layers {
		perImage := lr.Result.Latency / float64(rep.Batch)
		stages = append(stages, sched.Stage{Name: lr.Layer.Name, Latency: perImage})
	}
	if items < 1 {
		items = 1
	}
	var entries []sched.Entry
	switch {
	case rep.Arch == "INCA":
		// Batch-parallel: one pass of the full-batch layer latencies.
		full := make([]sched.Stage, len(rep.Layers))
		for i, lr := range rep.Layers {
			full[i] = sched.Stage{Name: lr.Layer.Name, Latency: lr.Result.Latency}
		}
		entries = sched.BatchParallel(full)
	case rep.Phase == Training:
		entries = sched.Serial(stages, items)
	default:
		entries = sched.LayerPipeline(stages, items)
	}
	return sched.Gantt(entries, width), nil
}

// --- In-situ execution (whole networks on the array models) ---

type (
	// InSituMachine executes a Classifier end-to-end on the RRAM array
	// models: direct convolution on 2T1R planes, folded FC reads, digital
	// pooling/activation, and the §IV.C backward pass in which errors
	// overwrite the activation cells.
	InSituMachine = insitu.Machine
	// InSituOptions configures quantization, ADC resolution, device noise
	// and wear tracking for in-situ execution.
	InSituOptions = insitu.Options
)

// NewInSitu builds an in-situ execution machine.
func NewInSitu(opt InSituOptions) *InSituMachine { return insitu.New(opt) }

// --- Endurance analysis (§VI future work) ---

// EnduranceProfile is one dataflow's device-wear analysis.
type EnduranceProfile = endure.Profile

// AnalyzeEndurance evaluates the write-pressure lifetime of a design
// ("INCA" or anything else for WS) in a phase, on the given device, using
// a simulated batch latency.
func AnalyzeEndurance(archName string, phase Phase, dev DeviceSpec, batchLatency float64) EnduranceProfile {
	return endure.Analyze(archName, phase, dev, nil, batchLatency)
}

// DeviceSpec is a cell-technology description (Table II circuit block).
type DeviceSpec = rram.Device

// DeviceCandidates returns the §VI device technologies: RRAM, PCM, FeFET,
// and SRAM.
func DeviceCandidates() []DeviceSpec { return endure.Candidates() }

// --- Functional array execution (real numbers through the RRAM models) ---

// INCAArrayOptions configures functional IS execution (noise lands on
// stored activations; Quantize is the per-window ADC).
type INCAArrayOptions = core.FuncOptions

// WSArrayOptions configures functional WS execution (noise lands on
// programmed weights; Quantize is the per-column ADC).
type WSArrayOptions = baseline.FuncOptions

// INCAFunctionalConv executes a batched convolution on 2T1R 3D stacks
// exactly as the INCA hardware does, returning one output per image.
func INCAFunctionalConv(batch []*Tensor, w *Tensor, opt INCAArrayOptions) []*Tensor {
	outs, _ := core.FunctionalConv2D(batch, w, opt)
	return outs
}

// WSFunctionalConv executes a convolution on an unrolled WS crossbar
// (ISAAC-style).
func WSFunctionalConv(x, w *Tensor, opt WSArrayOptions) *Tensor {
	out, _ := baseline.FunctionalConv2D(x, w, opt)
	return out
}

// --- Sweep engine (parallel cross-product evaluation) ---

type (
	// SweepPlan declares a sweep as architectures × networks × phases ×
	// configuration overrides.
	SweepPlan = sweep.Plan
	// SweepArch is one architecture axis entry of a plan.
	SweepArch = sweep.Arch
	// SweepOverride is one named configuration transform of a plan.
	SweepOverride = sweep.Override
	// SweepOptions tunes a run: worker-pool size and a shareable cache.
	SweepOptions = sweep.Options
	// SweepResult is one completed (or failed) cell evaluation.
	SweepResult = sweep.Result
	// SweepCache memoizes cell reports with singleflight deduplication.
	SweepCache = sweep.Cache
)

// SweepINCA returns the paper's INCA accelerator as a sweep axis.
func SweepINCA() SweepArch { return sweep.INCAArch() }

// SweepBaseline returns the 2D WS baseline as a sweep axis.
func SweepBaseline() SweepArch { return sweep.BaselineArch() }

// SweepGPU returns the Titan RTX roofline model as a sweep axis.
func SweepGPU() SweepArch { return sweep.GPUArch() }

// SweepOutStat returns the output-stationary comparison point as a
// sweep axis.
func SweepOutStat() SweepArch { return sweep.OutStatArch() }

// SweepDataflow returns a registered dataflow's default configuration as
// a sweep axis, or ErrUnknownDataflow for an unregistered name.
func SweepDataflow(id string) (SweepArch, error) { return sweep.DataflowArch(id) }

// SweepConfig wraps an explicit configuration as a sweep axis, selecting
// the IS or WS model by its Dataflow field.
func SweepConfig(cfg Config) SweepArch { return sweep.ConfigArch(cfg) }

// PaperSweep returns the full Figs. 11–16 evaluation cross product:
// {INCA, WS baseline, GPU} × the six ImageNet CNNs × both phases.
func PaperSweep() SweepPlan { return sweep.PaperPlan() }

// SweepCacheOption configures NewSweepCache.
type SweepCacheOption func(*SweepCache)

// NewSweepCache returns an empty memoization cache to share across runs.
func NewSweepCache(opts ...SweepCacheOption) *SweepCache {
	c := sweep.NewCache()
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ErrSweepEvalPanic reports a sweep cell whose evaluation panicked: the
// panic is recovered inside the cache, every coalesced waiter unblocks
// with this error, and the cell key stays retriable. Test with
// errors.Is on a SweepResult's Err.
var ErrSweepEvalPanic = sweep.ErrEvalPanic

// --- Persistent result store (warm starts across restarts) ---

type (
	// ResultStore is the disk-backed, content-addressed result store:
	// append-only segment files of report JSON keyed by the SHA-256 of
	// the canonical cell key, with an index rebuilt by scanning at open
	// (a torn tail record is truncated, not fatal), TTL + size-capped
	// eviction via segment compaction, and corpus export/import.
	// Attached to a SweepCache (WithResultStore) or the HTTP service
	// (ServiceOptions.Store) it makes restarts warm: previously
	// simulated cells load from disk instead of recomputing.
	ResultStore = store.Store
	// ResultStoreOptions bounds OpenResultStore; the zero value is
	// usable (256 MiB cap, no TTL).
	ResultStoreOptions = store.Options
	// ResultStoreStats is the store's counter snapshot (also served at
	// GET /v1/store/stats and inside /metrics).
	ResultStoreStats = store.Stats
	// ResultStoreImport summarizes one corpus import: records added,
	// skipped (key already present), and rejected (undecodable or
	// content-address mismatch).
	ResultStoreImport = store.ImportResult
)

// OpenResultStore opens (or creates) a persistent result store rooted
// at dir, rebuilding its index by scanning the segment files. A
// truncated or torn tail record — a crash mid-append — is discarded and
// the surviving prefix serves normally.
func OpenResultStore(dir string, opt ResultStoreOptions) (*ResultStore, error) {
	return store.Open(dir, opt)
}

// WithResultStore attaches a persistent store as the cache's second
// tier: memory misses consult the store before simulating, and fresh
// results are written through, so the cache warm-starts from disk on
// the next process.
//
//	st, err := inca.OpenResultStore(dir, inca.ResultStoreOptions{})
//	cache := inca.NewSweepCache(inca.WithResultStore(st))
func WithResultStore(st *ResultStore) SweepCacheOption {
	return func(c *SweepCache) { c.SetTier(st) }
}

// RunSweep evaluates every cell of the plan on a bounded worker pool and
// returns the results in deterministic plan order. Cancelling ctx stops
// new evaluations; unexecuted cells carry the context's error.
func RunSweep(ctx context.Context, p SweepPlan, opt SweepOptions) ([]SweepResult, error) {
	return sweep.Run(ctx, p, opt)
}

// StreamSweep launches the sweep and delivers results in completion
// order; the channel closes once every cell has reported.
func StreamSweep(ctx context.Context, p SweepPlan, opt SweepOptions) (<-chan SweepResult, error) {
	return sweep.Stream(ctx, p, opt)
}

// --- Mapping auto-tuner (per-network Pareto frontiers) ---

type (
	// TuneOptions bounds a TuneSearch: which dataflows and phases to
	// search, the per-dataflow candidate cap, sweep worker count, a
	// shareable cache, and a retry policy for transient failures.
	TuneOptions = tune.Options
	// TuneCandidate is one evaluated (dataflow, mapping) point with its
	// energy/latency/area objectives.
	TuneCandidate = tune.Candidate
	// TuneFrontier is one (network, phase) Pareto frontier: the
	// non-dominated candidates sorted by ascending energy.
	TuneFrontier = tune.Frontier
)

// TuneSearch enumerates every registered dataflow's legal mapping
// points for the network (crossbar tile shapes, 3D plane depths, loop
// orders, bounded by multiplex and buffer capacity), evaluates them on
// the sweep engine, and returns one energy × latency × area Pareto
// frontier per requested phase. The zero TuneOptions searches every
// dataflow at inference.
func TuneSearch(ctx context.Context, net *Network, opt TuneOptions) ([]TuneFrontier, error) {
	return tune.Search(ctx, net, opt)
}

// --- HTTP simulation service (cmd/inca-serve's substrate) ---

type (
	// Service is the production HTTP simulation service: a stdlib-only
	// JSON API over the v2 facade (POST /v1/simulate, POST /v1/sweep,
	// GET /v1/models, GET /v1/experiments/{id}, /healthz, /metrics) with
	// bounded admission, per-request deadlines, worker-budget coupling,
	// and graceful shutdown. See internal/serve for the endpoint and
	// production-behavior details.
	Service = serve.Server
	// ServiceOptions configures NewService; the zero value is
	// production-usable (see serve.Options for every default).
	ServiceOptions = serve.Options
	// ServiceSimulateRequest is the POST /v1/simulate body.
	ServiceSimulateRequest = serve.SimulateRequest
	// ServiceSweepRequest is the POST /v1/sweep body.
	ServiceSweepRequest = serve.SweepRequest
	// ServiceSweepResponse is the POST /v1/sweep payload.
	ServiceSweepResponse = serve.SweepResponse
	// ServiceModelInfo is one GET /v1/models entry.
	ServiceModelInfo = serve.ModelInfo
	// ServiceMetrics is the GET /metrics counter snapshot.
	ServiceMetrics = serve.Snapshot
	// ServiceSLOOptions configures burn-rate SLO tracking
	// (ServiceOptions.SLO); the zero value disables it.
	ServiceSLOOptions = serve.SLOOptions
	// ServiceSLOStats is the tracker's snapshot: per-window burn rates
	// and the ok/degraded classification, as served in /metrics and
	// /healthz/ready.
	ServiceSLOStats = serve.SLOStats
	// ServiceUsageResponse is the GET /v1/usage payload: request/job
	// totals plus the per-model×dataflow cost breakdown.
	ServiceUsageResponse = serve.UsageResponse
	// ServiceTraceResponse is the GET /v1/trace/{id} payload: the
	// federated span set and its rendered tree.
	ServiceTraceResponse = serve.TraceResponse
	// ServiceTraceIndex is the GET /v1/trace payload: one summary row
	// per retained trace, most recently active first.
	ServiceTraceIndex = serve.TraceIndexResponse
	// CostSummary is one request's (or job's) cost-attribution rollup:
	// wall time, cell counts (cached, failed, attempts, retries),
	// coalesced replays, and the simulated energy/latency totals.
	// Servers append it to responses on the ?cost=1 opt-in.
	CostSummary = cost.Summary
)

// NewService builds the HTTP simulation service. Mount Handler on any
// http.Server, or let Service.Serve manage listening and graceful
// drain-on-cancel.
func NewService(opt ServiceOptions) *Service { return serve.New(opt) }

// NewServiceHandler is the one-line embedding path: the fully
// instrumented handler (request IDs, access logs, admission, metrics)
// with default options plus the given cache and logger taken from opt.
func NewServiceHandler(opt ServiceOptions) http.Handler { return serve.New(opt).Handler() }

// --- Durable asynchronous jobs (crash-safe sweeps) ---

type (
	// JobManager owns the durable asynchronous job subsystem: submitted
	// sweep specs execute on a bounded runner pool detached from the
	// submitting request, every state transition and progress step is
	// journaled (append-only, CRC-framed, torn tails truncated at open
	// like the result store's segments), and a manager reopened over the
	// same directory resumes every non-terminal job from the journal —
	// re-running only the cells the result store has not already
	// persisted, so the resumed result is byte-identical to an
	// uninterrupted run. Attach one via ServiceOptions.Jobs to serve the
	// /v1/jobs API.
	JobManager = job.Manager
	// JobManagerOptions bounds OpenJobManager; the zero value is usable
	// (2 runners, queue depth 64).
	JobManagerOptions = job.Options
	// JobSnapshot is one job's externally visible state — also the
	// GET /v1/jobs/{id} payload.
	JobSnapshot = job.Snapshot
	// JobState is a job's lifecycle state: queued → running →
	// succeeded | failed | cancelled.
	JobState = job.State
	// JobStats is the manager's counter snapshot, exported inside
	// /metrics and /healthz/ready.
	JobStats = job.Stats
)

// The job lifecycle states.
const (
	JobQueued    = job.StateQueued
	JobRunning   = job.StateRunning
	JobSucceeded = job.StateSucceeded
	JobFailed    = job.StateFailed
	JobCancelled = job.StateCancelled
)

// Job subsystem sentinels: ErrJobQueueFull answers a submission the
// bounded queue cannot hold (HTTP 503 with Retry-After); ErrUnknownJob
// answers lookups of IDs the manager never saw; ErrJobsDisabled
// answers facade job calls on a service built without a JobManager;
// ErrJobRunnerPanic is the terminal error of a job whose executor
// panicked — the runner pool recovers it and the job fails instead of
// taking the process down.
var (
	ErrJobQueueFull   = job.ErrQueueFull
	ErrUnknownJob     = job.ErrUnknownJob
	ErrJobsDisabled   = serve.ErrJobsDisabled
	ErrJobRunnerPanic = job.ErrRunnerPanic
)

// OpenJobManager opens (or creates) a job manager journaled under dir;
// an empty dir keeps jobs in memory only (no crash resume). Jobs found
// non-terminal in the journal — the process died or shut down while
// they were queued or running — are requeued the moment the manager is
// attached to a service.
func OpenJobManager(dir string, opt JobManagerOptions) (*JobManager, error) {
	return job.Open(dir, opt)
}

// SubmitJob submits a sweep spec as a durable asynchronous job on the
// service's manager — the in-process twin of POST /v1/jobs. Job IDs
// derive from the spec's content, so resubmitting an identical spec
// returns the existing job's snapshot instead of duplicating work.
func SubmitJob(s *Service, req ServiceSweepRequest) (JobSnapshot, error) {
	return s.SubmitJob(req)
}

// JobStatus reports one job's current snapshot.
func JobStatus(s *Service, id string) (JobSnapshot, error) {
	return s.JobStatus(id)
}

// --- Fault injection and retries (the robustness layer) ---

type (
	// FaultInjector is a deterministic seeded fault injector: rules keyed
	// by stable site names fire from per-site PRNG streams, so an injected
	// failure schedule reproduces exactly across runs and worker counts.
	// A nil *FaultInjector is inert, making injection free to thread
	// through production code paths.
	FaultInjector = fault.Injector
	// FaultRule arms one fault at a site pattern (trailing '*' matches a
	// prefix) with a probability, an optional trigger cap, and a payload
	// (error, panic, latency, or context cancellation).
	FaultRule = fault.Rule
	// FaultKind selects a rule's failure mode.
	FaultKind = fault.Kind
	// SweepRetryPolicy arms transparent per-cell retries in SweepOptions:
	// transient cell failures re-evaluate with capped exponential backoff
	// and seeded jitter before surfacing in a SweepResult.
	SweepRetryPolicy = sweep.RetryPolicy
	// StuckFault pins one crossbar cell at LRS (full conductance) or HRS
	// (zero) through reprogramming — the device-level failure model.
	StuckFault = rram.StuckFault
	// StuckFaultRow is one row of the stuck-at accuracy experiment:
	// training accuracy with a fraction of weight devices dead.
	StuckFaultRow = train.StuckFaultRow
	// Client is the retrying HTTP client for the simulation service: it
	// honors Retry-After, backs off with seeded jitter, respects context
	// deadlines, and never retries 4xx answers.
	Client = client.Client
	// ClientOptions tunes NewClient; the zero value is usable.
	ClientOptions = client.Options
	// APIError is a non-2xx answer from the service, carrying the status,
	// the server's message, and any Retry-After hint.
	APIError = client.APIError
)

// Failure modes a FaultRule can inject.
const (
	FaultError   = fault.KindError
	FaultPanic   = fault.KindPanic
	FaultLatency = fault.KindLatency
	FaultCancel  = fault.KindCancel
)

// Chaos-testing fault sites inside the HTTP service (armed via
// ServiceOptions.Inject; never enabled by default).
const (
	ChaosSiteRequest = serve.ChaosSiteRequest
	ChaosSiteExec    = serve.ChaosSiteExec
	ChaosSiteCancel  = serve.ChaosSiteCancel
	ChaosSiteJob     = serve.ChaosSiteJob
)

// ErrClientAttemptsExhausted reports a Client call that stayed retryable
// through every allowed attempt; it wraps the last failure.
var ErrClientAttemptsExhausted = client.ErrAttemptsExhausted

// NewFaultInjector returns an empty injector whose every probabilistic
// draw derives from seed. Arm sites with Add; wire it into
// SweepOptions.Inject or ServiceOptions.Inject.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// MarkTransient wraps err so IsTransient reports it retryable.
func MarkTransient(err error) error { return fault.MarkTransient(err) }

// IsTransient reports whether err is worth retrying: explicitly marked
// errors and 5xx APIErrors are; context errors and 4xx never are. The
// sweep engine and the HTTP client share this classification.
func IsTransient(err error) bool { return fault.IsTransient(err) }

// NewClient returns a retrying HTTP client for the service at baseURL.
func NewClient(baseURL string, opt ClientOptions) (*Client, error) {
	return client.New(baseURL, opt)
}

// StuckFaultAccuracy runs the device-failure accuracy experiment: for
// each rate, a deterministic injector flips that fraction of trained
// weight devices to stuck-at-LRS/HRS and the row reports the surviving
// test accuracy against the clean model.
func StuckFaultAccuracy(cfg ExperimentConfig, rates []float64) []StuckFaultRow {
	return train.StuckFaultTable(cfg, rates)
}

// --- Tracing and runtime telemetry (the observability layer) ---

type (
	// Tracer produces nested spans across the whole stack: the HTTP
	// service's per-request root, the sweep engine's per-cell and
	// per-attempt spans, and the simulator's per-layer leaves whose
	// attributes reconcile with the report's latency table. Spans land
	// in a bounded in-memory ring (queryable via TraceDump or the
	// service's GET /v1/trace/{id}) and any extra sinks.
	Tracer = obs.Tracer
	// TracerOption configures NewTracer.
	TracerOption = obs.TracerOption
	// TraceSpan is a live span; annotate with SetAttr/Event and finish
	// with End or EndWith.
	TraceSpan = obs.Span
	// TraceSpanData is the immutable record of a completed span — what
	// sinks receive and TraceRing stores.
	TraceSpanData = obs.SpanData
	// TraceAttr is one key/value annotation on a span or event.
	TraceAttr = obs.Attr
	// TraceRing is the bounded in-memory span store backing trace
	// queries; oldest spans are evicted first.
	TraceRing = obs.Ring
	// TraceSink receives completed spans (the ring and the JSONL writer
	// are the built-ins; implement it for custom exporters).
	TraceSink = obs.Sink
	// KernelStats is the atomic counter block tracking tensor-kernel
	// invocations, chunking, and worker occupancy. Install with
	// InstallKernelStats (or tensor.SetStatsHook) and read with
	// Snapshot; /metrics exports it when a hook is installed.
	KernelStats = tensor.KernelStats
	// KernelStatsSnapshot is a point-in-time copy of a KernelStats.
	KernelStatsSnapshot = tensor.StatsSnapshot
)

// NewTracer builds a tracer. With no options, spans go to a
// default-capacity in-memory ring only.
func NewTracer(opts ...TracerOption) *Tracer { return obs.NewTracer(opts...) }

// WithTraceRing sets the tracer's in-memory ring capacity (spans);
// n <= 0 keeps the default.
func WithTraceRing(n int) TracerOption { return obs.WithRing(n) }

// WithTraceJSONL streams every completed span to w as one JSON object
// per line, in addition to the ring.
func WithTraceJSONL(w io.Writer) TracerOption { return obs.WithSink(obs.NewJSONLWriter(w)) }

// WithTraceSink attaches a custom span sink alongside the ring.
func WithTraceSink(s TraceSink) TracerOption { return obs.WithSink(s) }

// WithTracer starts a root span named name on t and returns a context
// carrying it: every facade call made with that context (Simulate,
// RunSweep, the service handlers' internals) nests its spans beneath
// the root. End the returned span to flush it to the tracer's sinks.
func WithTracer(ctx context.Context, t *Tracer, name string, attrs ...TraceAttr) (context.Context, *TraceSpan) {
	return t.Start(ctx, name, attrs...)
}

// TraceDump renders one trace from the tracer's ring as an indented
// span tree with durations and attributes — the quick
// human-readable view (the service's GET /v1/trace/{id}?format=text
// serves the same rendering).
func TraceDump(t *Tracer, traceID string) string {
	if t == nil || t.Ring() == nil {
		return ""
	}
	return obs.Dump(t.Ring(), traceID)
}

// InstallKernelStats installs a fresh process-wide kernel-stats
// collector and returns it; /metrics reports its counters. The hook
// costs one atomic load per kernel call — negligible against any real
// kernel.
func InstallKernelStats() *KernelStats {
	s := &KernelStats{}
	tensor.SetStatsHook(s)
	return s
}
