package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/inca-arch/inca/internal/client"
	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sweep"
)

// SpanDispatch covers one scatter to one peer; it nests under the
// coordinating request's span, and — because the client forwards the
// traceparent header — the shard's own serve/request span joins the
// same trace, so GET /v1/trace/{id} on the coordinator shows the whole
// cluster execution as one tree.
const SpanDispatch = "cluster/dispatch"

// probeTimeout bounds one peer readiness probe or trace fetch.
const probeTimeout = 2 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Peers are the shard base URLs ("http://host:port"). At least one.
	Peers []string
	// Client tunes the dispatch clients (retries, backoff, logger). One
	// client per peer is built at construction.
	Client client.Options
	// Cache memoizes cells evaluated coordinator-side (every peer
	// lost); nil gives each fallback run a private cache.
	Cache *sweep.Cache
	// Logger receives dispatch and rehash lines; nil discards them.
	Logger *slog.Logger
}

// Coordinator scatters sweep cells across a peer ring and gathers the
// partials back into input order. It implements serve.Sharder, so
// cmd/inca-serve can mount it behind /v1/sweep without the serve
// package ever importing the HTTP client. Safe for concurrent use; the
// membership view is shared across sweeps, so one sweep's discovery of
// a dead peer routes the next sweep around it immediately.
type Coordinator struct {
	opt     Options
	clients map[string]*client.Client
	members *membership
	log     *slog.Logger

	ringMu sync.Mutex
	ring   *Ring // over the live set of the last round; see ringFor
}

// New builds a coordinator over the given peers.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Peers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one peer")
	}
	log := opt.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	clients := make(map[string]*client.Client, len(opt.Peers))
	for _, p := range opt.Peers {
		c, err := client.New(p, opt.Client)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if _, dup := clients[p]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		clients[p] = c
	}
	return &Coordinator{
		opt:     opt,
		clients: clients,
		members: newMembership(opt.Peers),
		log:     log,
	}, nil
}

// pendingCell is one not-yet-answered cell: its slot in the caller's
// cell list plus how many dispatches it has already lost — lost
// dispatches count into the final Result.Attempts, so a rehashed cell
// is visible as a retried one.
type pendingCell struct {
	idx      int
	failures int
}

// Sweep evaluates cells across the cluster: consistent-hash scatter by
// cache key, gather of the reports, and — when a peer's dispatch
// exhausts the client's retries with a transient failure — a rehash of
// its cells onto the survivor ring in the next round. Terminal failures
// (4xx answers, context errors) abort the sweep: the request is wrong
// or abandoned, and no amount of re-dispatching helps. When every peer
// is lost the remaining cells run on the coordinator's own engine, so
// the sweep still completes. results[i] answers cells[i]. With layers
// false the shards reply with totals-only reports (locally evaluated
// cells stay full).
func (co *Coordinator) Sweep(ctx context.Context, cells []sweep.Cell, layers bool) ([]sweep.Result, serve.ShardSummary, error) {
	summary := serve.ShardSummary{Peers: len(co.opt.Peers)}
	out := make([]sweep.Result, len(cells))
	seqToPending := make(map[int]*pendingCell, len(cells))
	for i, c := range cells {
		if _, dup := seqToPending[c.Seq]; dup {
			return nil, summary, fmt.Errorf("cluster: duplicate cell seq %d", c.Seq)
		}
		seqToPending[c.Seq] = &pendingCell{idx: i}
	}
	pending := make([]sweep.Cell, len(cells))
	copy(pending, cells)

	// One initial scatter plus one rehash per peer that can be lost.
	for round := 0; len(pending) > 0 && round <= len(co.opt.Peers); round++ {
		live := co.members.live()
		if len(live) == 0 {
			break
		}
		ring, err := co.ringFor(live)
		if err != nil {
			return nil, summary, err
		}
		summary.Rounds++
		parts := sweep.Partition(pending, ring.Owner)
		var (
			mu       sync.Mutex
			wg       sync.WaitGroup
			fatalErr error
			next     []sweep.Cell
		)
		for peer, part := range parts {
			wg.Add(1)
			go func(peer string, part []sweep.Cell) {
				defer wg.Done()
				results, err := co.dispatch(ctx, peer, part, layers)
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					co.members.markUp(peer)
					for _, res := range results {
						p := seqToPending[res.Cell.Seq]
						res.Attempts += p.failures
						out[p.idx] = res
					}
					return
				}
				if ctx.Err() != nil {
					fatalErr = ctx.Err()
					return
				}
				if !fault.IsTransient(err) {
					fatalErr = fmt.Errorf("cluster: shard %s: %w", peer, err)
					return
				}
				// Transient loss: the peer leaves the ring and its cells
				// rehash onto the survivors next round.
				co.members.markDown(peer, err)
				co.log.Warn("shard lost, rehashing", "peer", peer, "cells", len(part), "err", err.Error())
				summary.Rehashed += len(part)
				for _, c := range part {
					seqToPending[c.Seq].failures++
				}
				next = append(next, part...)
			}(peer, part)
		}
		wg.Wait()
		if fatalErr != nil {
			return nil, summary, fatalErr
		}
		// Re-dispatch in deterministic order (ranging the partition map
		// randomized it); placement is by key, so order only affects logs.
		sort.Slice(next, func(i, j int) bool {
			return seqToPending[next[i].Seq].idx < seqToPending[next[j].Seq].idx
		})
		pending = next
	}

	if len(pending) > 0 {
		// Last resort: no survivors (or the round budget ran out) — the
		// coordinator is also an inca-serve node, so it evaluates the
		// remainder on its own engine rather than failing the sweep.
		summary.Local += len(pending)
		co.log.Warn("no live peers, evaluating locally", "cells", len(pending))
		results, err := sweep.RunCells(ctx, pending, sweep.Options{Cache: co.opt.Cache})
		if err != nil {
			return nil, summary, err
		}
		for _, res := range results {
			p := seqToPending[res.Cell.Seq]
			res.Attempts += p.failures
			out[p.idx] = res
		}
	}

	summary.Down = co.members.downCount()
	for _, res := range out {
		if res.Attempts > 1 {
			summary.Retried++
		}
	}
	return out, summary, nil
}

// ringFor returns the ring over the live peers (sorted, as
// membership.live returns them). Rings are immutable, so the last one
// built is shared until the live set changes.
func (co *Coordinator) ringFor(live []string) (*Ring, error) {
	co.ringMu.Lock()
	defer co.ringMu.Unlock()
	if co.ring != nil && slices.Equal(co.ring.peers, live) {
		return co.ring, nil
	}
	ring, err := NewRing(live)
	if err != nil {
		return nil, err
	}
	co.ring = ring
	return ring, nil
}

// dispatch sends one peer its partition and lifts the response back
// into engine results. The dispatch span nests under the coordinating
// request; the traceparent header the client forwards makes the shard's
// own spans children of the same trace.
func (co *Coordinator) dispatch(ctx context.Context, peer string, part []sweep.Cell, layers bool) ([]sweep.Result, error) {
	ctx, span := obs.StartSpan(ctx, SpanDispatch)
	if span != nil {
		span.SetAttr(obs.String("peer", peer), obs.Int("cells", len(part)))
	}
	resp, err := co.clients[peer].ShardSweep(ctx, serve.ShardSweepRequest{Cells: serve.WireCells(part), Totals: !layers})
	if err != nil {
		span.EndWith(err)
		return nil, err
	}
	results, err := serve.ShardResults(part, *resp)
	if err != nil {
		// A malformed partial is indistinguishable from a broken peer:
		// classify transient so the cells rehash instead of failing the
		// sweep.
		err = fault.MarkTransient(err)
	}
	if span != nil {
		span.SetAttr(obs.String("shard_id", resp.ShardID))
	}
	span.EndWith(err)
	return results, err
}

// Health probes every peer's readiness concurrently and updates the
// membership view: a probe that answers 200 revives a down peer, a
// failed probe marks it down. The snapshot is sorted by peer URL.
func (co *Coordinator) Health(ctx context.Context) []serve.PeerHealth {
	var wg sync.WaitGroup
	for peer, c := range co.clients {
		wg.Add(1)
		go func(peer string, c *client.Client) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			if err := c.Ready(pctx); err != nil {
				co.members.markDown(peer, err)
			} else {
				co.members.markUp(peer)
			}
		}(peer, c)
	}
	wg.Wait()
	states := co.members.snapshot()
	out := make([]serve.PeerHealth, 0, len(states))
	for _, st := range states {
		out = append(out, serve.PeerHealth{Peer: st.Peer, Up: st.Up, Error: st.Error})
	}
	return out
}

// FetchSpans pulls the spans every peer retained for one trace,
// concurrently, each probe bounded by probeTimeout. A peer that is
// down, breaker-open, or simply never saw the trace contributes
// nothing — federated trace assembly is best-effort by design, and the
// coordinator's own ring already holds the coordinating spans. serve's
// GET /v1/trace/{id} discovers this method by interface assertion
// (serve.SpanFetcher) and merges the result into its local ring.
func (co *Coordinator) FetchSpans(ctx context.Context, traceID string) []obs.SpanData {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out []obs.SpanData
	)
	for _, peer := range co.Peers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			resp, err := co.clients[peer].ShardTrace(pctx, traceID)
			if err != nil {
				co.log.Warn("trace fetch failed", "peer", peer, "err", err.Error())
				return
			}
			mu.Lock()
			out = append(out, resp.Spans...)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	// Deterministic assembly order: peers answer concurrently, so sort
	// by start time before handing the set to the merge (which keeps
	// first occurrence on span-ID collisions).
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// BreakerTrips sums circuit-breaker trips across the per-peer dispatch
// clients — how many times a dead shard stopped being probed at full
// retry cost. Zero when Options.Client leaves the breaker unarmed.
// serve's /metrics discovers this method by interface assertion and
// exports it as inca_client_breaker_trips_total.
func (co *Coordinator) BreakerTrips() int64 {
	var total int64
	for _, c := range co.clients {
		total += c.BreakerStats().Trips
	}
	return total
}

// Peers returns the configured peer URLs, sorted.
func (co *Coordinator) Peers() []string {
	out := make([]string, len(co.opt.Peers))
	copy(out, co.opt.Peers)
	sort.Strings(out)
	return out
}
