package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	incaclient "github.com/inca-arch/inca/internal/client"
	"github.com/inca-arch/inca/internal/cluster"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sweep"
)

// fleetShards is the cluster size behind the coordinator.
const fleetShards = 3

// setupFleet boots a cluster the way `inca-serve -peers` deploys one: a
// coordinator and 3 shards, each its own HTTP server on loopback. 4
// closed-loop clients send the coordinator 8-cell batch studies drawn
// uniformly from 720, so two callers seldom ask the same study within a
// coalescing window; the coordinator consistent-hashes every request's
// cells across the shards, dispatches one wire request per shard
// concurrently, and gathers the partials. Set-up boots the 4 nodes and
// computes every cell a study can ask for, so the shards' memo caches
// are warm and the window prices the cluster path (dispatch, wire
// encoding, shard serving), not the simulator.
func setupFleet(e *env) (*instance, error) {
	catalog := fleetCatalog()
	hc := newHTTPClient(4, nil)
	var peerHC *http.Client
	var nodes []*node
	shutdown := func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			nodes[i].close()
		}
		hc.CloseIdleConnections()
		if peerHC != nil {
			peerHC.CloseIdleConnections()
		}
	}
	// The ring places cells by hashing the peer URLs, so the coordinator
	// addresses peers by fixed names that its client dials at each
	// shard's ephemeral port: placement, and with it each shard's share
	// of the work, is the same on every run.
	hosts := make(map[string]string)
	var peers []string
	for i := 0; i < fleetShards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		n, err := boot(serve.Options{Tracer: e.tracer(), ShardID: id}, hc)
		if err != nil {
			shutdown()
			return nil, err
		}
		nodes = append(nodes, n)
		hosts[id+":80"] = strings.TrimPrefix(n.url, "http://")
		peers = append(peers, "http://"+id)
	}
	peerHC = newHTTPClient(4*fleetShards, hosts)
	cache := sweep.NewCache()
	co, err := cluster.New(cluster.Options{
		Peers:  peers,
		Client: incaclient.Options{BreakerThreshold: 8, HTTPClient: peerHC},
		Cache:  cache,
	})
	if err != nil {
		shutdown()
		return nil, err
	}
	coord, err := boot(serve.Options{Tracer: e.tracer(), Cache: cache, Sharder: co}, hc)
	if err != nil {
		shutdown()
		return nil, err
	}
	nodes = append(nodes, coord)
	c := &client{}
	for _, q := range fleetWarmups() {
		if err := post(context.Background(), hc, coord.url+q.path, q.body, &c.buf); err != nil {
			shutdown()
			return nil, err
		}
	}
	samples := &sampler{every: 61, max: 48}
	return &instance{
		op: func(ctx context.Context, c *client) error {
			q := catalog[c.rng.Intn(len(catalog))]
			if err := post(ctx, hc, coord.url+q.path, q.body, &c.buf); err != nil {
				return err
			}
			samples.offer(c, q, c.buf.Bytes())
			return nil
		},
		verify: func() error {
			if err := samples.check(newReference()); err != nil {
				return err
			}
			// Every sampled sweep must have been one clean scatter over the
			// whole ring: no lost shard, no rehash, no local fallback.
			for _, smp := range samples.got {
				var resp serve.SweepResponse
				if err := json.Unmarshal(smp.body, &resp); err != nil {
					return err
				}
				want := serve.ShardSummary{Peers: fleetShards, Rounds: 1}
				if resp.Shard == nil || *resp.Shard != want {
					return fmt.Errorf("sweep %s: shard summary %+v, want %+v", smp.q.body, resp.Shard, want)
				}
			}
			return nil
		},
		counters: func() counters {
			var total counters
			for _, n := range nodes {
				c := cacheCounters(n.srv.Cache().Stats())
				total.hits += c.hits
				total.misses += c.misses
				total.coalesced += c.coalesced
			}
			return total
		},
		close: shutdown,
	}, nil
}

// fleetBatches is how many batch sizes (1, 2, 4, ... 256) a fleet study
// picks its two from.
const fleetBatches = 9

// fleetStudy is one batch study: the IS and WS accelerators on one model
// in both phases at the given batch sizes, 4 cells per batch size. The
// GPU is left out: a sharded sweep that applies overrides to the fixed
// GPU roofline fails shard-side config validation.
func fleetStudy(model string, batchExps ...int) query {
	var ovs []serve.OverrideSpec
	for _, b := range batchExps {
		ovs = append(ovs, serve.OverrideSpec{Batch: 1 << b})
	}
	return sweepQuery(serve.SweepRequest{Archs: []string{"inca", "baseline"}, Models: []string{model},
		Phases: []string{"inference", "training"}, Overrides: ovs})
}

// fleetWarmups are the sweeps set-up sends: one study per model over
// every batch size, which computes every cell a fleet query can ask for.
func fleetWarmups() []query {
	all := make([]int, fleetBatches)
	for b := range all {
		all[b] = b
	}
	out := make([]query, 0, len(allModels))
	for _, model := range allModels {
		out = append(out, fleetStudy(model, all...))
	}
	return out
}

// fleetCatalog is every study a fleet client may ask for: each model
// with each ordered pair of distinct batch sizes, 720 in all.
func fleetCatalog() []query {
	var out []query
	for _, model := range allModels {
		for b1 := 0; b1 < fleetBatches; b1++ {
			for b2 := 0; b2 < fleetBatches; b2++ {
				if b1 != b2 {
					out = append(out, fleetStudy(model, b1, b2))
				}
			}
		}
	}
	return out
}
