package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/store"
)

// The explored design space: every combination is a distinct
// configuration, so no two explore requests share a cell.
var (
	exploreModels = []string{"ResNet18", "MobileNetV2", "VGG16-CIFAR", "ResNet18-CIFAR", "LeNet5", "AlexNet"}
	exploreArrays = []int{16, 32, 64, 128, 256}
	explorePlanes = []int{1, 2, 4, 8, 16, 32, 64, 128}
	exploreADC    = []int{3, 4, 5, 6, 7, 8, 9, 10}
	exploreBatch  = 512 // batch sizes 1..exploreBatch
)

// exploreStoreBytes is the store's size cap (`inca-serve
// -store-max-bytes`). A run writes a few hundred MiB, so the cap keeps
// compaction, which rewrites nearly the whole store each time it runs,
// out of the window: explore measures the write-through path, not
// compaction.
const exploreStoreBytes = 1 << 30

// exploreSpace is the number of distinct (model, override) points.
var exploreSpace = uint64(len(exploreModels) * len(exploreArrays) * len(explorePlanes) * len(exploreADC) * exploreBatch)

// setupExplore boots the service for researchers exploring the design
// space: one closed-loop client sends /v1/sweep requests for a
// configuration nobody asked for before (array size, stacked planes, ADC
// precision and batch drawn without repetition), under the IS and WS
// dataflows in inference and training. Every cell misses the memo cache,
// runs the analytical simulator, and is written through to the
// persistent result store, as `inca-serve -store-dir` does. Set-up opens
// a fresh store, boots, and simulates the unmodified reference points of
// every explored model.
func setupExplore(e *env) (*instance, error) {
	e.boots++
	dir := filepath.Join(e.dir, fmt.Sprintf("explore-store-%d", e.boots))
	st, err := store.Open(dir, store.Options{MaxBytes: exploreStoreBytes})
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(1, nil)
	n, err := boot(serve.Options{Store: st, Tracer: e.tracer()}, hc)
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	shutdown := func() {
		n.close()
		hc.CloseIdleConnections()
		st.Close()
		os.RemoveAll(dir)
	}
	c := &client{}
	ref := sweepQuery(serve.SweepRequest{Dataflows: []string{"is", "ws"}, Models: exploreModels, Phases: []string{"inference", "training"}})
	if err := post(context.Background(), hc, n.url+ref.path, ref.body, &c.buf); err != nil {
		shutdown()
		return nil, err
	}

	// Points are visited in a seeded order that never repeats: index i
	// maps to (a*i + b) mod exploreSpace with a coprime to the space.
	rng := rand.New(rand.NewSource(e.seed))
	a := uint64(rng.Int63n(int64(exploreSpace)-1)) + 1
	for gcd(a, exploreSpace) != 1 {
		a++
	}
	b := uint64(rng.Int63n(int64(exploreSpace)))
	var next atomic.Uint64
	samples := &sampler{every: 53, max: 40}
	return &instance{
		op: func(ctx context.Context, c *client) error {
			i := next.Add(1) - 1
			if i >= exploreSpace {
				return fmt.Errorf("explore space of %d points exhausted", exploreSpace)
			}
			q := explorePoint((a*i + b) % exploreSpace)
			if err := post(ctx, hc, n.url+q.path, q.body, &c.buf); err != nil {
				return err
			}
			samples.offer(c, q, c.buf.Bytes())
			return nil
		},
		verify: func() error { return samples.check(newReference()) },
		counters: func() counters {
			c := cacheCounters(n.srv.Cache().Stats())
			c.storePuts = st.Stats().Puts
			return c
		},
		close: shutdown,
	}, nil
}

// explorePoint decodes one index of the design space into its request.
func explorePoint(i uint64) query {
	take := func(n int) int {
		v := int(i % uint64(n))
		i /= uint64(n)
		return v
	}
	model := exploreModels[take(len(exploreModels))]
	ov := serve.OverrideSpec{
		ArraySize:     exploreArrays[take(len(exploreArrays))],
		StackedPlanes: explorePlanes[take(len(explorePlanes))],
		ADCBits:       exploreADC[take(len(exploreADC))],
		Batch:         take(exploreBatch) + 1,
	}
	return sweepQuery(serve.SweepRequest{
		Dataflows: []string{"is", "ws"},
		Models:    []string{model},
		Phases:    []string{"inference", "training"},
		Overrides: []serve.OverrideSpec{ov},
	})
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
