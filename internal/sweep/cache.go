package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/inca-arch/inca/internal/sim"
)

// ErrEvalPanic reports an eval function that panicked inside Cache.Do;
// the panic is converted into this error (wrapping the panic value's
// rendering) so one broken cell cannot kill its worker goroutine,
// deadlock the waiters coalesced onto its flight, or leave a dead entry
// poisoning the key forever. It mirrors ErrMapPanic and
// sim.ErrSimulatorPanic, and like them it is terminal: a panic is a
// programming error, not a transient fault, so the retry layer does not
// re-run it — but the key itself is forgotten, so a later caller can
// re-evaluate.
var ErrEvalPanic = errors.New("sweep: cell evaluation panicked")

// Tier is a second result tier consulted when the in-memory cache
// misses — the seam the persistent store (internal/store) plugs into.
// Get returns the report stored under a cell key (Cell.Key);
// Put stores a freshly evaluated one. Implementations must be safe for
// concurrent use and must never fail the caller: a broken disk degrades
// Get to a miss and Put to a no-op. The singleflight layer above
// guarantees at most one Get and one Put in flight per key.
type Tier interface {
	Get(key string) (*sim.Report, bool)
	Put(key string, rep *sim.Report)
}

// Cache memoizes simulation reports by cell key with singleflight-style
// deduplication: when several goroutines ask for the same key
// concurrently, exactly one runs the simulation and the rest block until
// its result lands. Successful reports are retained for the cache's
// lifetime (they are a few KB each); failed evaluations are forgotten so
// a later caller with, say, a live context can retry.
//
// A Cache is safe for concurrent use and may be shared across sweeps —
// cmd/inca-experiments shares one cache across all experiments of a run,
// so Fig. 11 and Fig. 14 evaluate their common cells once.
//
// With a Tier attached (SetTier), the cache is two-level: a memory miss
// consults the tier before evaluating, and a successful evaluation is
// written through, so results survive the process. Tier lookups ride the
// same singleflight entry as evaluations — concurrent callers of a cold
// key trigger one disk read, not one each.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	tier    Tier

	hits      atomic.Int64
	misses    atomic.Int64
	diskHits  atomic.Int64
	expired   atomic.Int64
	coalesced atomic.Int64
}

type cacheEntry struct {
	ready chan struct{} // closed once rep/err are final
	rep   *sim.Report
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// SetTier attaches (or, with nil, detaches) the cache's second tier.
// Safe to call concurrently with Do; flights already past their tier
// lookup finish under the old tier.
func (c *Cache) SetTier(t Tier) {
	c.mu.Lock()
	c.tier = t
	c.mu.Unlock()
}

// Do returns the memoized report for key, running eval at most once per
// key across all concurrent callers. cached reports true when this call
// did not run eval itself (a stored result, the attached Tier, or
// another goroutine's in-flight evaluation). Waiting callers unblock
// with ctx's error if their context ends first; such a call received
// nothing from the cache, so it reports cached=false and counts as
// neither hit nor miss — it is tallied by Expired instead (the flight it
// abandoned may still land for future callers). Hits() therefore counts
// only calls that actually received a result without running eval, and
// Misses() only calls that ran eval. These counters are the one record
// of each lookup's outcome: a request sees its own share through the
// returned cached flag, a trace through the cell span's cached
// attribute.
//
// An eval that panics is recovered and surfaced as ErrEvalPanic: the
// waiters coalesced onto the flight observe the error and unblock, and
// the key is forgotten so it stays retriable. The flight always lands —
// ready closes on every path.
//
// Callers must treat the returned report as immutable: cache hits alias
// the same *sim.Report.
func (c *Cache) Do(ctx context.Context, key string, eval func() (*sim.Report, error)) (rep *sim.Report, cached bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		// Prefer a result that is already final over a raced Done — a
		// completed flight should never be reported as an expired wait.
		select {
		case <-e.ready:
			c.hits.Add(1)
			return e.rep, true, e.err
		default:
		}
		select {
		case <-e.ready:
			c.hits.Add(1)
			return e.rep, true, e.err
		case <-ctx.Done():
			c.expired.Add(1)
			return nil, false, ctx.Err()
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	tier := c.tier
	c.mu.Unlock()

	// The flight must always land, whatever happens below: forget failed
	// entries (so the key is retriable), then wake every waiter. Both in
	// one defer so the map is consistent before anyone unblocks.
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
		}
		close(e.ready)
	}()

	// Second tier: a persisted result short-circuits evaluation. The
	// lookup runs inside the flight, so concurrent callers of a cold key
	// cost one disk read.
	if tier != nil {
		if stored, ok := tier.Get(key); ok {
			c.diskHits.Add(1)
			e.rep = stored
			return e.rep, true, nil
		}
	}

	c.misses.Add(1)
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				e.rep, e.err = nil, fmt.Errorf("%w: %s: %v", ErrEvalPanic, key, rec)
			}
		}()
		e.rep, e.err = eval()
	}()
	if e.err == nil && tier != nil {
		tier.Put(key, e.rep)
	}
	return e.rep, false, e.err
}

// CacheStats is a point-in-time snapshot of a cache's counters, in the
// shape the HTTP service's /metrics endpoint exports.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	DiskHits int64 `json:"disk_hits"`
	Expired  int64 `json:"expired"`
	// CoalescedHits counts whole requests served from another caller's
	// in-flight execution by the HTTP service's coalescing layer — the
	// request-level analogue of Hits. The counter lives here, next to
	// the per-cell dedup counters, so batching efficacy is observable
	// alongside disk_hits in every stats surface; the cache itself never
	// increments it (the coalescer calls AddCoalesced). It is the only
	// count of coalesced replays: the HTTP service's coalesced_total
	// reads it, so a cache shared by two servers reports both servers'
	// replays.
	CoalescedHits int64 `json:"coalesced_hits"`
	Entries       int   `json:"entries"`
}

// Stats snapshots the cache's counters. The counters are read
// individually, so a snapshot taken during a sweep is approximate (each
// field is itself exact).
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.Hits(),
		Misses:        c.Misses(),
		DiskHits:      c.DiskHits(),
		Expired:       c.Expired(),
		CoalescedHits: c.CoalescedHits(),
		Entries:       c.Len(),
	}
}

// AddCoalesced records n requests served by the coalescing layer from
// another caller's in-flight execution, without touching this cache.
func (c *Cache) AddCoalesced(n int64) { c.coalesced.Add(n) }

// CoalescedHits reports how many whole requests the coalescing layer
// served from another caller's in-flight execution.
func (c *Cache) CoalescedHits() int64 { return c.coalesced.Load() }

// Hits reports how many Do calls received a result without running eval
// or touching the second tier: stored results and coalesced flights.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses reports how many Do calls ran eval.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// DiskHits reports how many Do calls were served by the attached Tier
// instead of evaluating. Zero when no tier is attached.
func (c *Cache) DiskHits() int64 { return c.diskHits.Load() }

// Expired reports how many Do calls waited on another caller's in-flight
// evaluation but saw their own context end first. Such calls received no
// report and are counted as neither hits nor misses.
func (c *Cache) Expired() int64 { return c.expired.Load() }

// Len reports the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
