package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// shardPlan is the fixture plan shard tests slice cells from.
func shardPlan() sweep.Plan {
	return sweep.Plan{
		Archs:    []sweep.Arch{sweep.INCAArch(), sweep.BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
}

// TestShardSweepByteIdentity posts a sparse cell subset to
// /v1/shard/sweep and asserts every returned report is byte-identical
// to the same cell evaluated in-process — the wire round trip
// (arch.Config JSON, report stable encoding) must not perturb a single
// byte, or the cluster's merge result would drift from a single-node
// run.
func TestShardSweepByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Options{ShardID: "s-test"})
	_ = s
	cells, err := shardPlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	subset := []sweep.Cell{cells[3], cells[0], cells[2]} // sparse, shuffled
	wire, err := WireCells(subset)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ShardSweepRequest{Cells: wire})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/shard/sweep", string(body), nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var sr ShardSweepResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ShardID != "s-test" {
		t.Fatalf("shard_id = %q, want s-test", sr.ShardID)
	}

	local, err := sweep.RunCells(context.Background(), subset, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ShardResults(subset, sr)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("cell %d failed: %v", i, res.Err)
		}
		want, err := json.Marshal(local[i].Report)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d report drifted across the wire:\n%s\nvs\n%s", i, got, want)
		}
		if res.Cell.Seq != subset[i].Seq {
			t.Fatalf("cell %d seq = %d, want %d", i, res.Cell.Seq, subset[i].Seq)
		}
	}
}

// TestShardSweepRejectsBadCells pins the endpoint's validation: empty
// lists and unknown models are the caller's error, answered 400 before
// admission.
func TestShardSweepRejectsBadCells(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		`{"cells":[]}`,
		`{"cells":[{"seq":0,"arch":"x","config":{},"model":"NoSuchNet","phase":"inference"}]}`,
	} {
		resp := post(t, ts.URL+"/v1/shard/sweep", body, nil)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}
}

// fakeSharder implements Sharder with canned health and an engine that
// runs cells locally, for handler tests without a real cluster. Its
// results cross the shard wire types as a shard's would, totals-only
// when the caller asks for no layers, and it records every layers
// argument it is given.
type fakeSharder struct {
	peers   []PeerHealth
	summary ShardSummary

	mu     sync.Mutex
	layers []bool
}

func (f *fakeSharder) Sweep(ctx context.Context, cells []sweep.Cell, layers bool) ([]sweep.Result, ShardSummary, error) {
	f.mu.Lock()
	f.layers = append(f.layers, layers)
	f.mu.Unlock()
	results, err := sweep.RunCells(ctx, cells, sweep.Options{})
	if err != nil {
		return nil, f.summary, err
	}
	results, err = ShardResults(cells, ShardSweepResponse{Cells: wireResults(results, layers)})
	return results, f.summary, err
}

// calls returns the layers argument of every Sweep call so far.
func (f *fakeSharder) calls() []bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]bool(nil), f.layers...)
}

func (f *fakeSharder) Health(context.Context) []PeerHealth { return f.peers }

// TestSweepViaSharderMatchesLocal runs the same plan through a plain
// server and a shard-mode server (whose Sharder evaluates on the same
// engine) and asserts the response cells are byte-identical — the
// serve-level half of the cluster byte-identity guarantee.
func TestSweepViaSharderMatchesLocal(t *testing.T) {
	body := `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference","training"]}`

	_, plainTS := newTestServer(t, Options{})
	plain := readAll(t, post(t, plainTS.URL+"/v1/sweep", body, nil))

	sharder := &fakeSharder{summary: ShardSummary{Peers: 3, Rounds: 1}}
	_, shardTS := newTestServer(t, Options{Sharder: sharder})
	sharded := readAll(t, post(t, shardTS.URL+"/v1/sweep", body, nil))

	var p, sh SweepResponse
	if err := json.Unmarshal(plain, &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sharded, &sh); err != nil {
		t.Fatal(err)
	}
	pc, _ := json.Marshal(p.Cells)
	sc, _ := json.Marshal(sh.Cells)
	if !bytes.Equal(pc, sc) {
		t.Fatalf("shard-mode cells differ from local run:\n%s\nvs\n%s", sc, pc)
	}
	if sh.Shard == nil || sh.Shard.Peers != 3 {
		t.Fatalf("shard-mode response lacks its summary: %+v", sh.Shard)
	}
	if p.Shard != nil {
		t.Fatal("single-node response grew a shard summary (legacy bodies must stay byte-identical)")
	}
}

// TestReadinessPerPeerHealth pins shard-mode readiness: minority loss
// is degraded-but-ready (the ring rehashes around it), majority loss is
// 503 with a Retry-After.
func TestReadinessPerPeerHealth(t *testing.T) {
	up := PeerHealth{Peer: "http://a", Up: true}
	down := PeerHealth{Peer: "http://b", Up: false, Error: "connection refused"}

	cases := []struct {
		name   string
		peers  []PeerHealth
		status int
		want   string
	}{
		{"all up", []PeerHealth{up, up, up}, http.StatusOK, "ready"},
		{"minority down", []PeerHealth{up, up, down}, http.StatusOK, "degraded"},
		{"majority down", []PeerHealth{up, down, down}, http.StatusServiceUnavailable, "unavailable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Sharder: &fakeSharder{peers: tc.peers}, ShardID: "coord"})
			resp, err := http.Get(ts.URL + "/healthz/ready")
			if err != nil {
				t.Fatal(err)
			}
			raw := readAll(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			var rr struct {
				Status  string       `json:"status"`
				ShardID string       `json:"shard_id"`
				Peers   []PeerHealth `json:"peers"`
			}
			if err := json.Unmarshal(raw, &rr); err != nil {
				t.Fatal(err)
			}
			if rr.Status != tc.want {
				t.Fatalf("status field = %q, want %q", rr.Status, tc.want)
			}
			if len(rr.Peers) != len(tc.peers) {
				t.Fatalf("peers = %d, want %d", len(rr.Peers), len(tc.peers))
			}
			if tc.status == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Fatal("unavailable readiness carries no Retry-After")
			}
		})
	}
}

// TestRetryAfterJitter pins the seeded jitter contract: with a seed the
// hints spread within [base, base+max(1,base/4)] and the stream is
// reproducible; without one the hint is exact (the pre-jitter
// contract).
func TestRetryAfterJitter(t *testing.T) {
	seq := func(seed int64, n int) []int {
		s := New(Options{RetryAfter: 8e9, RetryJitterSeed: seed}) // 8s base -> jitter in [0,2]
		out := make([]int, n)
		for i := range out {
			out[i] = s.retryAfterSeconds()
		}
		return out
	}
	a, b := seq(7, 32), seq(7, 32)
	spread := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter stream not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 8 || a[i] > 10 {
			t.Fatalf("jittered hint %d outside [8,10]", a[i])
		}
		spread[a[i]] = true
	}
	if len(spread) < 2 {
		t.Fatalf("32 jittered hints collapsed to %v — no spread", spread)
	}
	exact := New(Options{RetryAfter: 8e9})
	for i := 0; i < 4; i++ {
		if got := exact.retryAfterSeconds(); got != 8 {
			t.Fatalf("unseeded hint = %d, want exact 8", got)
		}
	}
}

// TestSharderLayersByCaller pins which callers ask the sharder for
// per-layer reports. /v1/simulate returns the report and a store-backed
// coordinator job persists it, so both ask for layers, and the simulate
// CSV keeps its per-layer rows; /v1/sweep and a store-less job keep
// only summary rows and ask for totals.
func TestSharderLayersByCaller(t *testing.T) {
	const simBody = `{"arch":"inca","model":"LeNet5","phase":"inference"}`
	const sweepBody = `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference"]}`
	runJob := func(base string) {
		t.Helper()
		var snap job.Snapshot
		if err := json.Unmarshal(readAll(t, post(t, base+"/v1/jobs", sweepBody, nil)), &snap); err != nil {
			t.Fatal(err)
		}
		if got := waitJob(t, base, snap.ID); got.State != job.StateSucceeded {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
	}

	sh := &fakeSharder{}
	_, ts := newTestServer(t, Options{Sharder: sh, Jobs: newJobManager(t, "", job.Options{Runners: 1})})
	_, plainTS := newTestServer(t, Options{})
	want := readAll(t, post(t, plainTS.URL+"/v1/simulate?format=csv", simBody, nil))
	if got := readAll(t, post(t, ts.URL+"/v1/simulate?format=csv", simBody, nil)); !bytes.Equal(got, want) {
		t.Fatalf("sharded simulate CSV differs from a local run's:\n%s\nvs\n%s", got, want)
	}
	if n := strings.Count(string(want), "\n"); n < 3 {
		t.Fatalf("simulate CSV has %d lines, want per-layer rows:\n%s", n, want)
	}
	readAll(t, post(t, ts.URL+"/v1/simulate", simBody, nil))
	readAll(t, post(t, ts.URL+"/v1/sweep", sweepBody, nil))
	runJob(ts.URL)
	if got, want := fmt.Sprint(sh.calls()), "[true true false false]"; got != want {
		t.Fatalf("layers asked by simulate csv, simulate, sweep, job = %s, want %s", got, want)
	}

	stSh := &fakeSharder{}
	_, stURL, st := newStoreServer(t, Options{Sharder: stSh, Jobs: newJobManager(t, "", job.Options{Runners: 1})})
	runJob(stURL)
	if got := fmt.Sprint(stSh.calls()); got != "[true]" {
		t.Fatalf("store-backed job asked layers = %s, want [true]", got)
	}
	cells, err := sweep.Plan{
		Archs:    []sweep.Arch{sweep.INCAArch(), sweep.BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5()},
		Phases:   []sim.Phase{sim.Inference},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range runLocal(t, cells) {
		rep, ok := st.Get(cells[i].Key().String())
		if !ok || rep.TotalsOnly() || len(rep.Layers) == 0 || len(rep.Layers) != len(res.Report.Layers) {
			t.Fatalf("store record for %s is not a full report (found %v)", cells[i].Key(), ok)
		}
	}
}
