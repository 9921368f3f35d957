package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterministic pins the placement contract: the same peer set
// yields the same owner for every key, regardless of the order the
// peers were listed in — two coordinators built from differently
// ordered configs must agree on every assignment.
func TestRingDeterministic(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{peers[2], peers[0], peers[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("arch/is/fp%04d/LeNet5/inference", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %s: owner differs across peer orderings (%s vs %s)",
				key, r1.Owner(key), r2.Owner(key))
		}
	}
}

// TestRingSpread asserts virtual nodes keep the assignment roughly even:
// with 3 peers and 3000 keys no peer owns less than half its fair
// share.
func TestRingSpread(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < 3000; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, p := range peers {
		if counts[p] < 500 {
			t.Fatalf("peer %s owns only %d of 3000 keys: %v", p, counts[p], counts)
		}
	}
}

// TestRingStabilityOnLoss is the property the mid-sweep rehash relies
// on: removing one peer moves only that peer's keys — every key a
// survivor owned keeps its owner, so a rehash round re-dispatches
// nothing that already succeeded.
func TestRingStabilityOnLoss(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	full, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing(peers[:2])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.Owner(key), reduced.Owner(key)
		if before == peers[2] {
			if after == peers[2] {
				t.Fatalf("key %s still owned by the removed peer", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %s moved from survivor %s to %s on unrelated loss", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("removed peer owned no keys — spread test should have caught this")
	}
}

// TestRingRejectsBadPeerSets pins construction errors.
func TestRingRejectsBadPeerSets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}
