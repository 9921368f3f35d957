// Package cluster turns a set of inca-serve nodes into one horizontally
// scaled sweep service: a consistent-hash ring assigns every cell of a
// plan to a peer by its canonical cache key, a coordinator scatters the
// partials over the retrying HTTP client and gathers the full reports
// back into deterministic plan order, and membership tracking rehashes
// a lost shard's cells onto the survivors mid-sweep. Results are
// byte-identical to a single-node run: shards return each cell's full
// stable report encoding, the coordinator rebuilds the same summary
// rows handleSweep builds locally, and key-based placement means a
// peer's memo cache deduplicates exactly as one process would.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// replicas is the virtual-node count per peer. 64 points per peer keeps
// the assignment spread within a few percent of even for small clusters
// while the ring stays a few KB.
const replicas = 64

// Ring is an immutable consistent-hash ring over a peer set. Cells hash
// onto the ring by their canonical cache-key string; each key is owned
// by the first virtual node at or after its hash. Losing a peer and
// rebuilding the ring over the survivors moves only the lost peer's
// keys — every surviving assignment is stable, so a mid-sweep rehash
// re-dispatches only what was actually lost.
type Ring struct {
	points []point
	peers  []string
}

type point struct {
	hash uint64
	peer string
}

// NewRing builds a ring with replicas virtual nodes per peer. Peer
// order does not matter; the ring is fully determined by the peer
// strings themselves.
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	seen := make(map[string]bool, len(peers))
	r := &Ring{points: make([]point, 0, len(peers)*replicas)}
	for _, p := range peers {
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by peer name so the ring
		// stays deterministic across peer orderings.
		return r.points[i].peer < r.points[j].peer
	})
	sort.Strings(r.peers)
	return r, nil
}

// Owner returns the peer owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last hash
	}
	return r.points[i].peer
}

// Peers returns the ring's peer set, sorted.
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// hash64 is FNV-1a over s — stable across processes and Go releases,
// which the placement contract (same key, same owner, on every
// coordinator) depends on.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
