package sim

import (
	"reflect"
	"testing"

	"github.com/inca-arch/inca/internal/metrics"
)

// TestBodyCarriesEveryComponent fails when metrics gains an energy
// component, or reorders them, without a body format change: the body
// writes bodyComponents, and a component missing from it would silently
// drop out of every stored record.
func TestBodyCarriesEveryComponent(t *testing.T) {
	if !reflect.DeepEqual(metrics.Components(), bodyComponents[:]) {
		t.Fatalf("metrics components %v, the body carries %v", metrics.Components(), bodyComponents)
	}
	if tally := reflect.TypeOf(metrics.Energy{}); tally.NumField() != 1 || tally.Field(0).Type.Len() != len(bodyComponents) {
		t.Fatalf("metrics.Energy is %v, the body carries %d components", tally, len(bodyComponents))
	}
}
