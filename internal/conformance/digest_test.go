package conformance

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// TestMappingSpaceDigest pins every backend's mapping space over the
// whole zoo: one line per point of Mappings(default, net), hashed in
// is/ws/os/gpu order. A line is
//
//	id|net|label|applied config name|Fingerprint|Area|New error
//
// so a change to which points are legal, how Apply rewrites them, what
// they cost in area or whether New accepts them moves the digest. It
// also pins which phases each backend's default simulator accepts on
// LeNet5 and the exact refusal of the others.
func TestMappingSpaceDigest(t *testing.T) {
	const wantDigest = "116404d674d443f0c0f711ad37adada49ded448a20c4fb661a77afafe4bf6eb2"
	wantPhases := map[string]string{
		"is":  "inference=<nil> training=<nil>",
		"ws":  "inference=<nil> training=<nil>",
		"os":  "inference=<nil> training=dataflow: unsupported phase: os cannot simulate training",
		"gpu": "inference=<nil> training=<nil>",
	}

	h := sha256.New()
	for _, id := range []string{"is", "ws", "os", "gpu"} {
		d, err := dataflow.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		base := d.Default
		for _, net := range nn.Zoo() {
			for _, m := range d.Mappings(base, net) {
				cfg := d.Apply(base, m)
				_, err := d.New(cfg)
				fmt.Fprintf(h, "%s|%s|%s|%s|%s|%v|%v\n",
					id, net.Name, m.Label(), cfg.Name, cfg.Fingerprint(), d.Area(cfg), err)
			}
		}

		s, err := d.New(base)
		if err != nil {
			t.Fatalf("%s: New(default): %v", id, err)
		}
		var got string
		for _, ph := range []sim.Phase{sim.Inference, sim.Training} {
			_, err := s.Simulate(context.Background(), nn.LeNet5(), ph)
			got += fmt.Sprintf(" %s=%v", ph, err)
		}
		if got[1:] != wantPhases[id] {
			t.Errorf("%s phases on LeNet5:\n got %s\nwant %s", id, got[1:], wantPhases[id])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantDigest {
		t.Errorf("mapping-space digest %s, want %s", got, wantDigest)
	}
}
