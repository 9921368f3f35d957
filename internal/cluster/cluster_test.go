package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/client"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// e2ePlan is the cluster tests' sweep: 2 archs x 2 models x 2 phases =
// 8 cells, enough to spread across 3 shards.
func e2ePlan() sweep.Plan {
	return sweep.Plan{
		Archs:    []sweep.Arch{sweep.INCAArch(), sweep.BaselineArch()},
		Networks: []*nn.Network{nn.LeNet5(), nn.VGG16CIFAR()},
		Phases:   []sim.Phase{sim.Inference, sim.Training},
	}
}

const e2eBody = `{"archs":["inca","baseline"],"models":["LeNet5","VGG16-CIFAR"],"phases":["inference","training"]}`

// killer wraps a shard's handler as a crashable process: once armed,
// the first shard dispatch it receives flips it dead and from then on
// it aborts every connection — the TCP-level behavior of a process that
// died mid-request.
type killer struct {
	inner http.Handler
	mu    sync.Mutex
	armed bool
	dead  bool
}

func (k *killer) arm() {
	k.mu.Lock()
	k.armed = true
	k.mu.Unlock()
}

func (k *killer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.mu.Lock()
	if k.armed && r.Method == http.MethodPost && r.URL.Path == "/v1/shard/sweep" {
		k.dead = true
	}
	dead := k.dead
	k.mu.Unlock()
	if dead {
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
}

// newShard boots one in-process inca-serve node.
func newShard(t *testing.T, id string, tracer *obs.Tracer) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Options{ShardID: id, Tracer: tracer})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fastClient is the dispatch client tuning for tests: fail a dead peer
// in milliseconds instead of seconds.
func fastClient() client.Options {
	return client.Options{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}
}

// pickVictim returns the index of a peer owning at least one of the
// plan's cells on the given ring — killing it must actually lose work.
func pickVictim(t *testing.T, urls []string, cells []sweep.Cell) int {
	t.Helper()
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	parts := sweep.Partition(cells, ring.Owner)
	for i, u := range urls {
		if n := len(parts[u]); n > 0 && n < len(cells) {
			return i // owns some cells but not all: the rehash has survivors with prior work
		}
	}
	for i, u := range urls {
		if len(parts[u]) > 0 {
			return i
		}
	}
	t.Fatal("no peer owns any cells")
	return -1
}

// TestE2EShardLossByteIdentity is the acceptance e2e: a 3-shard sweep
// through a coordinator, with one shard killed by its first dispatch,
// completes with summary cells byte-identical to a single-node run; the
// lost shard's cells are visibly rehashed and retried; and the
// coordinator's trace spans every shard — the surviving shards' own
// request spans join the same trace ID via the forwarded traceparent.
func TestE2EShardLossByteIdentity(t *testing.T) {
	// Reference: the same sweep on a plain single-node server.
	_, refTS := newShard(t, "", nil)
	refResp, err := http.Post(refTS.URL+"/v1/sweep", "application/json", strings.NewReader(e2eBody))
	if err != nil {
		t.Fatal(err)
	}
	refRaw := readBody(t, refResp)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep failed: %s", refRaw)
	}

	// Cluster: 3 shards, each tracing into its own ring.
	shardTracers := make([]*obs.Tracer, 3)
	shardServers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	killers := make([]*killer, 3)
	for i := range shardServers {
		shardTracers[i] = obs.NewTracer(obs.WithRing(512))
		s := serve.New(serve.Options{ShardID: shardName(i), Tracer: shardTracers[i]})
		killers[i] = &killer{inner: s.Handler()}
		shardServers[i] = httptest.NewServer(killers[i])
		t.Cleanup(shardServers[i].Close)
		urls[i] = shardServers[i].URL
	}

	cells, err := e2ePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, urls, cells)
	killers[victim].arm()

	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	coordTracer := obs.NewTracer(obs.WithRing(1024))
	coord := serve.New(serve.Options{Sharder: co, ShardID: "coord", Tracer: coordTracer})
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	resp, err := http.Post(coordTS.URL+"/v1/sweep", "application/json", strings.NewReader(e2eBody))
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster sweep failed: %s", raw)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("coordinator response carries no trace ID")
	}

	// Byte identity: the cells array must match the single-node run
	// exactly, shard loss and all.
	var ref, got struct {
		Cells json.RawMessage `json:"cells"`
		Shard *serve.ShardSummary
	}
	if err := json.Unmarshal(refRaw, &ref); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if string(got.Cells) != string(ref.Cells) {
		t.Fatalf("cluster cells differ from single-node run:\n%s\nvs\n%s", got.Cells, ref.Cells)
	}

	// The loss is visible: cells rehashed in a second round, the victim
	// down, and the rehashed cells counted as retried (their lost
	// dispatch rides in Result.Attempts).
	if got.Shard == nil {
		t.Fatal("cluster response carries no shard summary")
	}
	if got.Shard.Rehashed == 0 || got.Shard.Rounds < 2 || got.Shard.Down == 0 {
		t.Fatalf("shard loss not visible in summary: %+v", got.Shard)
	}
	if got.Shard.Retried < got.Shard.Rehashed {
		t.Fatalf("rehashed cells not counted retried: %+v", got.Shard)
	}

	// One coordinator trace spans the cluster: the ring holds dispatch
	// spans for more than one peer, and a surviving shard's own request
	// span carries the same trace ID.
	spans := coordTracer.Ring().Trace(traceID)
	dispatchPeers := map[string]bool{}
	for _, sp := range spans {
		if sp.Name == SpanDispatch {
			if v, ok := sp.Attr("peer"); ok {
				dispatchPeers[fmt.Sprint(v)] = true
			}
		}
	}
	if len(dispatchPeers) < 2 {
		t.Fatalf("coordinator trace shows dispatches to %d peers, want >= 2", len(dispatchPeers))
	}
	joined := 0
	for i, tr := range shardTracers {
		if i == victim {
			continue
		}
		if len(tr.Ring().Trace(traceID)) > 0 {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("no surviving shard's spans joined the coordinator's trace")
	}
}

// TestCoordinatorRehashAttempts drives the coordinator directly at the
// Go level and asserts the per-cell contract the HTTP summary
// aggregates: every cell the dead shard lost comes back with
// Result.Attempts >= 2 (the lost dispatch counts), everything else with
// Attempts == 1, and results land in input order.
func TestCoordinatorRehashAttempts(t *testing.T) {
	shardServers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	killers := make([]*killer, 3)
	for i := range shardServers {
		s := serve.New(serve.Options{ShardID: shardName(i)})
		killers[i] = &killer{inner: s.Handler()}
		shardServers[i] = httptest.NewServer(killers[i])
		t.Cleanup(shardServers[i].Close)
		urls[i] = shardServers[i].URL
	}
	cells, err := e2ePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, urls, cells)
	killers[victim].arm()
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	lost := map[int]bool{}
	for _, c := range cells {
		if ring.Owner(c.Key()) == urls[victim] {
			lost[c.Seq] = true
		}
	}

	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	results, summary, err := co.Sweep(context.Background(), cells, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) {
		t.Fatalf("results = %d, want %d", len(results), len(cells))
	}
	for i, res := range results {
		if res.Cell.Seq != cells[i].Seq {
			t.Fatalf("result %d answers seq %d, want %d", i, res.Cell.Seq, cells[i].Seq)
		}
		if res.Err != nil {
			t.Fatalf("cell %d failed: %v", i, res.Err)
		}
		if lost[res.Cell.Seq] {
			if res.Attempts < 2 {
				t.Fatalf("rehashed cell %d has Attempts = %d, want >= 2", i, res.Attempts)
			}
		} else if res.Attempts != 1 {
			t.Fatalf("undisturbed cell %d has Attempts = %d, want 1", i, res.Attempts)
		}
	}
	if summary.Rehashed != len(lost) {
		t.Fatalf("summary.Rehashed = %d, want %d", summary.Rehashed, len(lost))
	}
	if summary.Down != 1 || summary.Rounds != 2 {
		t.Fatalf("summary = %+v, want Down 1, Rounds 2", summary)
	}
}

// TestCoordinatorReusesRing pins the ring cache: sweeps over an
// unchanged live set, concurrent ones included, share one ring, and a
// peer marked down gets a new ring without it, which the next sweep
// routes by.
func TestCoordinatorReusesRing(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		_, ts := newShard(t, shardName(i), nil)
		urls[i] = ts.URL
	}
	cells, err := e2ePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	ringAfterSweep := func() *Ring {
		t.Helper()
		if _, _, err := co.Sweep(context.Background(), cells, false); err != nil {
			t.Fatal(err)
		}
		co.ringMu.Lock()
		defer co.ringMu.Unlock()
		return co.ring
	}
	first := ringAfterSweep()
	if first == nil || ringAfterSweep() != first {
		t.Fatal("a sweep over the same live peers built a new ring")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := co.Sweep(context.Background(), cells, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ringAfterSweep() != first {
		t.Fatal("concurrent sweeps over the same live peers built a new ring")
	}
	victim := pickVictim(t, urls, cells)
	co.members.markDown(urls[victim], fmt.Errorf("test"))
	reduced := ringAfterSweep()
	if reduced == first {
		t.Fatal("the ring was not rebuilt after a peer went down")
	}
	for _, p := range reduced.Peers() {
		if p == urls[victim] {
			t.Fatalf("ring peers %v still include the down peer %s", reduced.Peers(), p)
		}
	}
	if len(reduced.Peers()) != len(urls)-1 {
		t.Fatalf("ring peers %v, want the %d live ones", reduced.Peers(), len(urls)-1)
	}
}

// TestCoordinatorAllPeersLostFallsBackLocal pins the last resort: with
// every peer dead the coordinator evaluates the cells on its own engine
// and the sweep still completes.
func TestCoordinatorAllPeersLostFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dead.Close)

	co, err := New(Options{Peers: []string{dead.URL}, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := e2ePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, summary, err := co.Sweep(context.Background(), cells, true)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Local != len(cells) || summary.Down != 1 {
		t.Fatalf("summary = %+v, want all %d cells local, 1 down", summary, len(cells))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("cell %d failed locally: %v", i, res.Err)
		}
	}
}

// TestCoordinatorTerminalErrorAborts pins the fault vocabulary: a 4xx
// from a shard is the request's fault, not the shard's — the sweep
// fails instead of rehashing a poisoned cell around the ring forever.
func TestCoordinatorTerminalErrorAborts(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
	}))
	t.Cleanup(bad.Close)

	co, err := New(Options{Peers: []string{bad.URL}, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := e2ePlan().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Sweep(context.Background(), cells, true); err == nil {
		t.Fatal("terminal shard answer did not abort the sweep")
	}
}

// TestHealthProbesReviveDownPeers pins membership recovery: a peer
// marked down by a lost dispatch rejoins the ring after a readiness
// probe finds it serving again.
func TestHealthProbesReviveDownPeers(t *testing.T) {
	s := serve.New(serve.Options{ShardID: "s0"})
	k := &killer{inner: s.Handler()}
	ts := httptest.NewServer(k)
	t.Cleanup(ts.Close)

	co, err := New(Options{Peers: []string{ts.URL}, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	co.members.markDown(ts.URL, context.DeadlineExceeded)
	if got := co.Health(context.Background()); !got[0].Up {
		t.Fatalf("live peer still reported down: %+v", got[0])
	}

	k.mu.Lock()
	k.dead = true
	k.mu.Unlock()
	if got := co.Health(context.Background()); got[0].Up {
		t.Fatalf("dead peer reported up: %+v", got[0])
	}
}

func shardName(i int) string { return string(rune('a'+i)) + "-shard" }

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return []byte(sb.String())
}

// TestShardedSweepWithGPUByteIdentity runs a sweep over every legacy
// arch, GPU included, with overrides through a 3-shard coordinator and
// asserts the cells match a single-node run byte for byte. The GPU axis
// is fixed: its zero Config must cross the shard wire without being
// validated, or every shard answers 400 and the sweep fails.
func TestShardedSweepWithGPUByteIdentity(t *testing.T) {
	const body = `{"archs":["inca","baseline","gpu"],"models":["LeNet5"],` +
		`"phases":["inference","training"],"overrides":[{"batch":4},{"adc_bits":6}]}`
	// One sweep worker per request on every node: the GPU's two override
	// cells share one cache key, and which of them reports "cached" must
	// not depend on worker scheduling.
	opts := func(id string, sharder serve.Sharder) serve.Options {
		return serve.Options{ShardID: id, Sharder: sharder, MaxInflight: 1 << 10}
	}
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep via %s: status %d: %s", url, resp.StatusCode, raw)
		}
		return raw
	}
	ref := httptest.NewServer(serve.New(opts("", nil)).Handler())
	t.Cleanup(ref.Close)

	urls := make([]string, 3)
	for i := range urls {
		ts := httptest.NewServer(serve.New(opts(shardName(i), nil)).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(serve.New(opts("coord", co)).Handler())
	t.Cleanup(coordTS.Close)

	var want, got struct {
		Cells json.RawMessage     `json:"cells"`
		Shard *serve.ShardSummary `json:"shard"`
	}
	if err := json.Unmarshal(post(ref.URL), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(post(coordTS.URL), &got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want.Cells), `"arch":"TitanRTX"`) {
		t.Fatalf("reference sweep has no GPU cells: %s", want.Cells)
	}
	if string(got.Cells) != string(want.Cells) {
		t.Fatalf("cluster cells differ from single-node run:\n%s\nvs\n%s", got.Cells, want.Cells)
	}
	if got.Shard == nil || got.Shard.Local != 0 {
		t.Fatalf("cells were not all evaluated on shards: %+v", got.Shard)
	}
}

// TestShardedSimulateByteIdentity pins /v1/simulate on a coordinator: the
// cell is dispatched to its owning shard like a one-cell sweep, and the
// JSON and CSV bodies are byte-identical to a single node's.
func TestShardedSimulateByteIdentity(t *testing.T) {
	ref := httptest.NewServer(serve.New(serve.Options{}).Handler())
	t.Cleanup(ref.Close)
	urls := make([]string, 3)
	for i := range urls {
		_, ts := newShard(t, shardName(i), nil)
		urls[i] = ts.URL
	}
	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(serve.New(serve.Options{Sharder: co}).Handler())
	t.Cleanup(coordTS.Close)
	const body = `{"dataflow":"is","model":"VGG16-CIFAR","phase":"training","batch":8}`
	for _, query := range []string{"", "?format=csv"} {
		get := func(base string) []byte {
			t.Helper()
			resp, err := http.Post(base+"/v1/simulate"+query, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("simulate via %s: status %d: %s", base, resp.StatusCode, raw)
			}
			return raw
		}
		if want, got := get(ref.URL), get(coordTS.URL); string(got) != string(want) {
			t.Fatalf("simulate%s via coordinator differs:\n%s\nvs\n%s", query, got, want)
		}
	}
}

// TestShardedSweepAllModelsByteIdentity runs a sweep over every zoo
// model and every dataflow through a 3-shard coordinator, whose shards
// reply with report totals only, and through a single node. The JSON
// rows, the CSV body, the ?cost=1 rows with the cost block's modeled
// energy and latency, and the /v1/usage rows must all be
// byte-identical.
func TestShardedSweepAllModelsByteIdentity(t *testing.T) {
	var models []string
	for _, n := range nn.Zoo() {
		models = append(models, n.Name)
	}
	if len(models) != 10 {
		t.Fatalf("zoo lists %d models, want 10", len(models))
	}
	names, err := json.Marshal(models)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"dataflows":["is","ws","os","gpu"],"models":` + string(names) + `,"phases":["inference","training"]}`

	ref := httptest.NewServer(serve.New(serve.Options{}).Handler())
	t.Cleanup(ref.Close)
	urls := make([]string, 3)
	for i := range urls {
		_, ts := newShard(t, shardName(i), nil)
		urls[i] = ts.URL
	}
	co, err := New(Options{Peers: urls, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(serve.New(serve.Options{Sharder: co}).Handler())
	t.Cleanup(coordTS.Close)

	do := func(method, url, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
		}
		return raw
	}
	type costRows struct {
		Cells json.RawMessage `json:"cells"`
		Cost  struct {
			Cells       int64   `json:"cells"`
			CachedCells int64   `json:"cached_cells"`
			FailedCells int64   `json:"failed_cells"`
			SimEnergyJ  float64 `json:"sim_energy_j"`
			SimLatencyS float64 `json:"sim_latency_s"`
		} `json:"cost"`
	}
	// Each node answers the same request sequence, so cached flags and
	// ledgers line up: JSON cold, then CSV and ?cost=1 warm.
	bodies := func(base string) (jsonRows costRows, csv []byte, costed costRows, usage json.RawMessage) {
		t.Helper()
		if err := json.Unmarshal(do(http.MethodPost, base+"/v1/sweep", body), &jsonRows); err != nil {
			t.Fatal(err)
		}
		csv = do(http.MethodPost, base+"/v1/sweep?format=csv", body)
		if err := json.Unmarshal(do(http.MethodPost, base+"/v1/sweep?cost=1", body), &costed); err != nil {
			t.Fatal(err)
		}
		var u struct {
			Rows json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(do(http.MethodGet, base+"/v1/usage", ""), &u); err != nil {
			t.Fatal(err)
		}
		return jsonRows, csv, costed, u.Rows
	}
	wantJSON, wantCSV, wantCost, wantUsage := bodies(ref.URL)
	gotJSON, gotCSV, gotCost, gotUsage := bodies(coordTS.URL)

	if !strings.Contains(string(wantJSON.Cells), `"network":"ResNet50"`) || !strings.Contains(string(wantJSON.Cells), `"error":`) {
		t.Fatalf("reference sweep lacks ResNet50 rows or an error cell: %.300s", wantJSON.Cells)
	}
	if string(gotJSON.Cells) != string(wantJSON.Cells) {
		t.Fatalf("JSON rows differ from single node:\n%s\nvs\n%s", gotJSON.Cells, wantJSON.Cells)
	}
	if string(gotCSV) != string(wantCSV) {
		t.Fatalf("CSV differs from single node:\n%s\nvs\n%s", gotCSV, wantCSV)
	}
	if string(gotCost.Cells) != string(wantCost.Cells) || gotCost.Cost != wantCost.Cost {
		t.Fatalf("?cost=1 rows or modeled totals differ from single node: %+v vs %+v", gotCost.Cost, wantCost.Cost)
	}
	if wantCost.Cost.Cells != 80 || wantCost.Cost.SimEnergyJ <= 0 {
		t.Fatalf("reference cost block = %+v, want 80 cells with modeled energy", wantCost.Cost)
	}
	if string(gotUsage) != string(wantUsage) {
		t.Fatalf("/v1/usage rows differ from single node:\n%s\nvs\n%s", gotUsage, wantUsage)
	}
}
