package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/inca-arch/inca/internal/nn"
)

// panicMachine is a legacy Machine that dies on every input.
type panicMachine struct{}

func (panicMachine) Simulate(*nn.Network, Phase) *Report {
	panic("unsupported layer geometry")
}

// okMachine returns a minimal report.
type okMachine struct{}

func (okMachine) Simulate(net *nn.Network, phase Phase) *Report {
	return &Report{Arch: "ok", Network: net.Name, Phase: phase, Batch: 1}
}

func testNet() *nn.Network {
	return &nn.Network{Name: "t", Layers: []nn.Layer{{Name: "relu", Kind: nn.ReLU}}}
}

// Regression: a panicking legacy Machine used to unwind straight through
// Wrap and kill the sweep worker goroutine that called it. Wrap must
// convert the panic into a per-call error.
func TestWrapRecoversMachinePanic(t *testing.T) {
	s := Wrap(panicMachine{}, "stub")
	rep, err := s.Simulate(context.Background(), testNet(), Inference)
	if rep != nil {
		t.Fatalf("report = %v, want nil after panic", rep)
	}
	if !errors.Is(err, ErrSimulatorPanic) {
		t.Fatalf("err = %v, want ErrSimulatorPanic", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "unsupported layer geometry") || !strings.Contains(msg, "t/inference") {
		t.Fatalf("error %q should carry the panic value and the cell identity", msg)
	}
}

func TestWrapValidation(t *testing.T) {
	s := Wrap(okMachine{}, "stub")
	ctx := context.Background()
	if _, err := s.Simulate(ctx, nil, Inference); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network err = %v", err)
	}
	if _, err := s.Simulate(ctx, &nn.Network{Name: "empty"}, Inference); !errors.Is(err, ErrEmptyNetwork) {
		t.Fatalf("empty network err = %v", err)
	}
	if _, err := s.Simulate(ctx, testNet(), Phase(99)); err == nil {
		t.Fatal("unknown phase must error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Simulate(cancelled, testNet(), Inference); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx err = %v", err)
	}
	rep, err := s.Simulate(ctx, testNet(), Inference)
	if err != nil || rep == nil || rep.Network != "t" {
		t.Fatalf("valid call = (%v, %v)", rep, err)
	}
}
