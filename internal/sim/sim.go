// Package sim defines the execution-level vocabulary shared by the INCA
// simulator, the WS baseline simulator, and the GPU model: phases,
// per-layer results, and whole-network reports.
package sim

import (
	"fmt"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
)

// Phase selects what is simulated.
type Phase int

// Simulation phases. Training covers feedforward + backpropagation +
// weight update for one batch (paper §II.B).
const (
	Inference Phase = iota
	Training
)

// String returns the phase's display name.
func (p Phase) String() string {
	if p == Inference {
		return "inference"
	}
	return "training"
}

// MarshalText renders the phase by its wire name, so structs embedding
// a Phase serialize it as "inference"/"training" rather than an opaque
// enum ordinal.
func (p Phase) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

// UnmarshalText parses the wire name back into a Phase.
func (p *Phase) UnmarshalText(b []byte) error {
	ph, err := ParsePhase(string(b))
	if err != nil {
		return err
	}
	*p = ph
	return nil
}

// ParsePhase parses a phase's wire name, the inverse of Phase.String.
// It is the one parser behind JSON, the HTTP API and the CLIs.
func ParsePhase(name string) (Phase, error) {
	switch name {
	case "inference":
		return Inference, nil
	case "training":
		return Training, nil
	}
	return 0, fmt.Errorf("unknown phase %q (want inference or training)", name)
}

// LayerResult carries one layer's simulated execution.
type LayerResult struct {
	Layer       nn.Layer
	Result      metrics.Result
	Utilization float64 // fraction of allocated RRAM cells doing useful work
	// AllocatedCells is the RRAM allocation backing this layer; it weights
	// the network-level utilization (an idle block-diagonal depthwise
	// mapping drags the average down in proportion to the cells it wastes).
	AllocatedCells int64
}

// Report aggregates a network execution on one architecture.
type Report struct {
	Arch    string
	Network string
	Phase   Phase
	Batch   int

	Layers []LayerResult
	// Total includes per-layer results plus any network-level costs
	// (pipeline fill, weight programming, update writes).
	Total metrics.Result

	// totalsOnly marks a report decoded from a wire form without layers
	// (see WireTotals); wireUtil then holds the wire's utilization, which
	// the missing layers can no longer recompute.
	totalsOnly bool
	wireUtil   float64
}

// TotalsOnly reports whether the report was decoded from a wire form
// without per-layer rows: its totals, utilization and derived figures
// are exact, but Layers is empty and WriteCSV refuses it.
func (r *Report) TotalsOnly() bool { return r.totalsOnly }

// Utilization returns the allocation-weighted mean utilization across
// compute layers — the Fig. 16 metric: total useful cells over total
// allocated cells.
func (r *Report) Utilization() float64 {
	if r.totalsOnly {
		return r.wireUtil
	}
	var useful, alloc float64
	for _, lr := range r.Layers {
		if !lr.Layer.IsCompute() || lr.AllocatedCells == 0 {
			continue
		}
		useful += lr.Utilization * float64(lr.AllocatedCells)
		alloc += float64(lr.AllocatedCells)
	}
	if alloc == 0 {
		return 0
	}
	return useful / alloc
}

// EnergyPerImage returns total energy divided by batch size. It returns
// ErrEmptyReport for a nil report and ErrZeroBatch when the batch size is
// not positive (instead of silently reporting zero joules).
func (r *Report) EnergyPerImage() (float64, error) {
	if r == nil {
		return 0, ErrEmptyReport
	}
	if r.Batch <= 0 {
		return 0, ErrZeroBatch
	}
	return r.Total.Energy.Total() / float64(r.Batch), nil
}

// Throughput returns images per second for the simulated batch.
func (r *Report) Throughput() float64 {
	if r.Total.Latency == 0 {
		return 0
	}
	return float64(r.Batch) / r.Total.Latency
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s %s %s batch=%d: %s, %s, util %.1f%%",
		r.Arch, r.Network, r.Phase, r.Batch,
		metrics.FormatEnergy(r.Total.Energy.Total()),
		metrics.FormatTime(r.Total.Latency),
		100*r.Utilization())
}

// Machine is the context-free simulation interface the accelerator
// models implement: the contract a dataflow backend's Machine
// constructor returns. Callers consume it as a Simulator through Wrap,
// its one adapter, which adds context cancellation and reports invalid
// input and panics as errors.
type Machine interface {
	// Simulate executes the network for one batch in the given phase.
	Simulate(net *nn.Network, phase Phase) *Report
}
