package arch

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns a stable hex digest of every field in the
// configuration. Two configs share a fingerprint exactly when they are
// equal, so the digest serves as a memoization key for simulation
// results: it is the config segment of the sweep engine's cell key
// (sweep.Cell.Key).
//
// Config holds only value types (ints, floats, strings and flat structs),
// so the %#v rendering is deterministic across processes of the same
// build; the digest is not meant to be stable across code changes that
// add or rename fields.
func (c Config) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", c)
	return fmt.Sprintf("%016x", h.Sum64())
}
