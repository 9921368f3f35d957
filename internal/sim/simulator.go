package sim

import (
	"context"
	"errors"
	"fmt"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
)

// Sentinel errors shared by the v2 simulation API. Callers test them with
// errors.Is.
var (
	// ErrNilNetwork reports a nil *nn.Network argument.
	ErrNilNetwork = errors.New("sim: nil network")
	// ErrEmptyNetwork reports a network with no layers.
	ErrEmptyNetwork = errors.New("sim: network has no layers")
	// ErrEmptyReport reports a nil or layer-less report where per-layer or
	// per-image data is required.
	ErrEmptyReport = errors.New("sim: empty report")
	// ErrZeroBatch reports a report whose batch size is not positive, so
	// per-image quantities are undefined.
	ErrZeroBatch = errors.New("sim: report batch size is not positive")
	// ErrSimulatorPanic reports a legacy Machine that panicked
	// mid-simulation; Wrap converts the panic into this error so one bad
	// cell cannot kill a whole sweep's worker pool. The panic value is in
	// the wrapping error's message.
	ErrSimulatorPanic = errors.New("sim: simulator panicked")
)

// Simulator is the v2 execution interface: context-aware and
// error-returning. Implementations must be safe for concurrent use — the
// sweep engine calls Simulate from many goroutines.
type Simulator interface {
	// Simulate executes the network for one batch in the given phase. It
	// returns ErrNilNetwork for a nil network, an error wrapping
	// ctx.Err() when the context is cancelled or past its deadline, and
	// an error for an unknown phase.
	Simulate(ctx context.Context, net *nn.Network, phase Phase) (*Report, error)
}

// Wrap adapts a context-free Machine to the Simulator interface, adding
// the argument validation and context checks a Machine lacks (it panics
// or returns garbage on bad input). The context is honored
// at whole-simulation granularity: a cell that has started runs to
// completion, which for the analytical models is microseconds.
//
// dataflow is the backend's identity: the simulate span carries it as a
// "dataflow" attribute and panic errors name it, so two backends
// simulating the same network/phase are distinguishable in traces and
// failure messages.
func Wrap(m Machine, dataflow string) Simulator {
	return wrapped{m: m, dataflow: dataflow}
}

type wrapped struct {
	m        Machine
	dataflow string
}

func (w wrapped) Simulate(ctx context.Context, net *nn.Network, phase Phase) (rep *Report, err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if net == nil {
		return nil, ErrNilNetwork
	}
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmptyNetwork, net.Name)
	}
	if phase != Inference && phase != Training {
		return nil, fmt.Errorf("sim: unknown phase %d", int(phase))
	}
	ctx, span := obs.StartSpan(ctx, SpanSimulate)
	if span != nil {
		span.SetAttr(
			obs.String("network", net.Name),
			obs.String("phase", phase.String()),
			obs.String("dataflow", w.dataflow))
	}
	// Legacy machines panic on inputs they cannot simulate (bad layer
	// geometry, unsupported shapes). Surface that as a per-call error
	// instead of letting it unwind a sweep worker goroutine.
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("%w: %s: %s/%s: %v", ErrSimulatorPanic, w.dataflow, net.Name, phase, r)
		}
		span.EndWith(err)
	}()
	rep = w.m.Simulate(net, phase)
	traceReport(ctx, rep)
	return rep, nil
}
