package nn_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"

	_ "github.com/inca-arch/inca/internal/baseline"
	_ "github.com/inca-arch/inca/internal/core"
	_ "github.com/inca-arch/inca/internal/gpu"
	_ "github.com/inca-arch/inca/internal/outstat"
)

// freshZoo builds every named network anew, in Zoo order.
func freshZoo() []*nn.Network {
	return append(nn.PaperModels(), nn.VGG16CIFAR(), nn.ResNet18CIFAR(), nn.LeNet5(), nn.AlexNet())
}

// TestByNameSharesOneInstance pins the zoo table: repeated lookups hand
// back the same network, and Zoo lists exactly those instances.
func TestByNameSharesOneInstance(t *testing.T) {
	zoo := nn.Zoo()
	if len(zoo) != len(freshZoo()) {
		t.Fatalf("Zoo lists %d networks, want %d", len(zoo), len(freshZoo()))
	}
	for _, net := range zoo {
		a, err := nn.ByName(net.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := nn.ByName(net.Name)
		if a != b || a != net {
			t.Fatalf("%s: ByName returned %p then %p, Zoo holds %p", net.Name, a, b, net)
		}
	}
	if _, err := nn.ByName("NoSuchNet"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

// TestSharedZooSurvivesSimulation runs every registered backend over
// every shared zoo network in both phases and asserts each network still
// equals a fresh builder output: no simulator may write to the read-only
// instances the service hands every request.
func TestSharedZooSurvivesSimulation(t *testing.T) {
	ctx := context.Background()
	for _, d := range dataflow.All() {
		s, err := d.New(d.Default)
		if err != nil {
			t.Fatalf("%s: %v", d.Caps.ID, err)
		}
		for _, net := range nn.Zoo() {
			for _, phase := range []sim.Phase{sim.Inference, sim.Training} {
				_, err := s.Simulate(ctx, net, phase)
				if err != nil && !errors.Is(err, dataflow.ErrUnsupportedPhase) {
					t.Fatalf("%s %s %v: %v", d.Caps.ID, net.Name, phase, err)
				}
			}
		}
	}
	for _, want := range freshZoo() {
		got, err := nn.ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed after simulation", want.Name)
		}
	}
}
