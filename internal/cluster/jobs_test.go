package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
)

// dispatchLog wraps a shard's handler and records the cells every
// shard sweep posted to it, keyed "model/phase/dataflow".
type dispatchLog struct {
	inner http.Handler
	mu    *sync.Mutex
	cells *[]string
}

func (d dispatchLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/shard/sweep" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		var req serve.ShardSweepRequest
		if json.Unmarshal(body, &req) == nil {
			d.mu.Lock()
			for _, c := range req.Cells {
				*d.cells = append(*d.cells, c.Model+"/"+c.Phase+"/"+c.Dataflow)
			}
			d.mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	d.inner.ServeHTTP(w, r)
}

// runJob submits a sweep job and returns its result body once it
// succeeds.
func runJob(t *testing.T, base, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap job.Snapshot
	if raw := readBody(t, resp); json.Unmarshal(raw, &snap) != nil || snap.ID == "" {
		t.Fatalf("submit answered %d: %s", resp.StatusCode, raw)
	}
	for deadline := time.Now().Add(30 * time.Second); !snap.State.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", snap.ID)
		}
		resp, err := http.Get(base + "/v1/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
			t.Fatal(err)
		}
	}
	if snap.State != job.StateSucceeded {
		t.Fatalf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	resp, err = http.Get(base + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

// newJobNode boots an in-process node with a memory-only job manager, a
// result store in dir (none when dir is empty), and the given sharder.
func newJobNode(t *testing.T, dir string, sharder serve.Sharder) string {
	t.Helper()
	jm, err := job.Open("", job.Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	opt := serve.Options{Jobs: jm, Sharder: sharder}
	if dir != "" {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		opt.Store = st
	}
	ts := httptest.NewServer(serve.New(opt).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestShardedJobByteIdentityAndStoreResume pins the coordinator's job
// path: a sweep job scattered over 3 shards returns a result body
// byte-identical to the same job on a single node, and a job over a
// store that already holds some of its cells dispatches only the rest.
func TestShardedJobByteIdentityAndStoreResume(t *testing.T) {
	var mu sync.Mutex
	var dispatched []string
	urls := make([]string, 3)
	for i := range urls {
		s := serve.New(serve.Options{ShardID: shardName(i)})
		ts := httptest.NewServer(dispatchLog{inner: s.Handler(), mu: &mu, cells: &dispatched})
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	takeDispatched := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := dispatched
		dispatched = nil
		sort.Strings(out)
		return out
	}

	want := runJob(t, newJobNode(t, "", nil), e2eBody)
	if got := runJob(t, newJobNode(t, t.TempDir(), co), e2eBody); !bytes.Equal(got, want) {
		t.Fatalf("sharded job result differs from single-node:\n%s\nvs\n%s", got, want)
	}
	if got := takeDispatched(); len(got) != 8 {
		t.Fatalf("cold sharded job dispatched %d cells, want 8: %q", len(got), got)
	}

	// A fresh coordinator whose store already holds the LeNet5 cells
	// (from a narrower job) dispatches only the VGG16-CIFAR ones.
	coord := newJobNode(t, t.TempDir(), co)
	runJob(t, coord, `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference","training"]}`)
	takeDispatched()
	if got := runJob(t, coord, e2eBody); !bytes.Equal(got, want) {
		t.Fatalf("store-resumed sharded job differs from single-node:\n%s\nvs\n%s", got, want)
	}
	got := takeDispatched()
	wantCells := []string{
		"VGG16-CIFAR/inference/is", "VGG16-CIFAR/inference/ws",
		"VGG16-CIFAR/training/is", "VGG16-CIFAR/training/ws",
	}
	if strings.Join(got, ",") != strings.Join(wantCells, ",") {
		t.Fatalf("store-resumed job dispatched %q, want only the missing cells %q", got, wantCells)
	}
}

// TestShardedJobStoresFullReports guards the coordinator's store: a job
// on a store-backed coordinator gathers full reports, so every stored
// record's layers equal a local run's, decoded from the same wire form.
// A totals-only gather would leave the records without layers.
func TestShardedJobStoresFullReports(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		_, ts := newShard(t, shardName(i), nil)
		urls[i] = ts.URL
	}
	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	jm, err := job.Open("", job.Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(serve.New(serve.Options{Jobs: jm, Sharder: co, Store: st}).Handler())
	t.Cleanup(ts.Close)
	runJob(t, ts.URL, e2eBody)

	cells, err := e2ePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.RunCells(context.Background(), cells, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range local {
		raw, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		var want sim.Report
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		got, ok := st.Get(cells[i].Key())
		if !ok {
			t.Fatalf("cell %s was not stored", cells[i].Key())
		}
		if len(want.Layers) == 0 || !reflect.DeepEqual(got.Layers, want.Layers) {
			t.Fatalf("stored %s has %d layers, want the local run's %d", cells[i].Key(), len(got.Layers), len(want.Layers))
		}
	}
}
