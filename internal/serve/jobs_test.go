package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
)

// newJobManager builds a manager the test owns (closed at cleanup) —
// serve.New arms it with the server's executor.
func newJobManager(t *testing.T, dir string, opt job.Options) *job.Manager {
	t.Helper()
	m, err := job.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

// waitJob polls the HTTP status endpoint until the job is terminal.
func waitJob(t *testing.T, base, id string) job.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var snap job.Snapshot
		resp := getJSON(t, base+"/v1/jobs/"+id, &snap)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status answered %d", resp.StatusCode)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return job.Snapshot{}
}

func TestJobSubmitWaitResult(t *testing.T) {
	t.Parallel()
	jm := newJobManager(t, "", job.Options{Runners: 1})
	_, ts := newTestServer(t, Options{Jobs: jm})

	body := `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference"]}`
	resp := post(t, ts.URL+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit answered %d, want 202", resp.StatusCode)
	}
	var snap job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.State.Terminal() && snap.State != job.StateSucceeded {
		t.Fatalf("submit snapshot = %+v", snap)
	}

	// Idempotent resubmission: same logical spec (different whitespace)
	// answers 200 with the same job.
	resp = post(t, ts.URL+"/v1/jobs", `{ "archs": ["inca","baseline"], "models": ["LeNet5"], "phases": ["inference"] }`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit answered %d, want 200", resp.StatusCode)
	}
	var again job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != snap.ID {
		t.Fatalf("resubmit landed on %s, want %s", again.ID, snap.ID)
	}

	final := waitJob(t, ts.URL, snap.ID)
	if final.State != job.StateSucceeded {
		t.Fatalf("state = %s (err %q)", final.State, final.Error)
	}
	if final.CellsTotal != 2 || final.CellsDone != 2 {
		t.Fatalf("progress = %d/%d, want 2/2", final.CellsDone, final.CellsTotal)
	}

	// The result body decodes into the deterministic JobResult shape.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result answered %d: %s", resp.StatusCode, raw)
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.JobID != snap.ID || len(res.Cells) != 2 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, c := range res.Cells {
		if c.Network != "LeNet5" || c.EnergyJ <= 0 {
			t.Fatalf("cell = %+v", c)
		}
	}

	// CSV negotiation renders the same cells without a cached column.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID+"/result", nil)
	req.Header.Set("Accept", "text/csv")
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	csvBody := string(readAll(t, cresp))
	lines := strings.Split(strings.TrimSpace(csvBody), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 cells:\n%s", len(lines), csvBody)
	}
	if strings.Contains(lines[0], "cached") {
		t.Fatalf("job csv must not carry the volatile cached column: %s", lines[0])
	}

	// The list shows the job in submission order.
	var list JobList
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestJobSubmitValidatesBeforeJournaling(t *testing.T) {
	t.Parallel()
	jm := newJobManager(t, "", job.Options{Runners: 1})
	_, ts := newTestServer(t, Options{Jobs: jm})

	resp := post(t, ts.URL+"/v1/jobs", `{"models":["NoSuchNet"]}`, nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model answered %d, want 400", resp.StatusCode)
	}
	if st := jm.Stats(); st.Jobs != 0 {
		t.Fatalf("invalid spec must not enter the job table: %+v", st)
	}
}

func TestJobAPIDisabledWithoutManager(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/jobs", `{"models":["LeNet5"]}`, nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("submit without a manager answered %d, want 404", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("list without a manager answered %d, want 404", resp.StatusCode)
	}
}

func TestJobUnknownIDAnswers404(t *testing.T) {
	t.Parallel()
	jm := newJobManager(t, "", job.Options{})
	_, ts := newTestServer(t, Options{Jobs: jm})
	for _, path := range []string{"/v1/jobs/jdeadbeefdeadbeef", "/v1/jobs/jdeadbeefdeadbeef/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s answered %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestJobQueueSheddingFaultAnswers503 fills a tiny runner pool with
// chaos-slowed jobs and checks overflow submissions shed with 503 +
// Retry-After instead of queueing unboundedly.
func TestJobQueueSheddingFaultAnswers503(t *testing.T) {
	t.Parallel()
	inj := fault.New(7)
	inj.Add(fault.Rule{Site: ChaosSiteJob, Kind: fault.KindLatency, Prob: 1, Delay: 30 * time.Second})
	jm := newJobManager(t, "", job.Options{Runners: 1, QueueDepth: 1})
	_, ts := newTestServer(t, Options{Jobs: jm, Inject: inj})

	submit := func(i int) *http.Response {
		resp := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"archs":["inca"],"models":["LeNet5"],"phases":["inference"],"batch":%d}`, i+1), nil)
		readAll(t, resp)
		return resp
	}
	if resp := submit(0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 0 answered %d", resp.StatusCode)
	}
	// Wait until the runner holds job 0 (stalled in the latency fault),
	// so the remaining capacity is exactly Runners+QueueDepth = 2 slots.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := jm.Stats(); st.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 0 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 answered %d", resp.StatusCode)
	}
	if resp := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 answered %d", resp.StatusCode)
	}
	resp := submit(3)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed answer must carry Retry-After")
	}
}

// TestJobChaosPanicReclaimedAsFailed arms a deterministic panic fault at
// the job site and checks the orphaned job is reclaimed into a terminal
// failed state carrying the engine's panic vocabulary — and that the
// runner pool survives to execute the next job.
func TestJobChaosPanicReclaimedAsFailed(t *testing.T) {
	t.Parallel()
	inj := fault.New(42)
	inj.Add(fault.Rule{Site: ChaosSiteJob, Kind: fault.KindPanic, Prob: 1, Max: 1})
	jm := newJobManager(t, "", job.Options{Runners: 1})
	_, ts := newTestServer(t, Options{Jobs: jm, Inject: inj})

	resp := post(t, ts.URL+"/v1/jobs", `{"archs":["inca"],"models":["LeNet5"],"phases":["inference"]}`, nil)
	var snap job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, ts.URL, snap.ID)
	if final.State != job.StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, sweep.ErrEvalPanic.Error()) {
		t.Fatalf("error %q should carry the eval-panic vocabulary", final.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, rr)
	if rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed job's result answered %d, want 500", rr.StatusCode)
	}

	// The panic rule is exhausted (Max: 1); the pool must still be alive.
	resp = post(t, ts.URL+"/v1/jobs", `{"archs":["inca"],"models":["LeNet5"],"phases":["training"]}`, nil)
	var next job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &next); err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, ts.URL, next.ID); got.State != job.StateSucceeded {
		t.Fatalf("post-panic job state = %s (err %q)", got.State, got.Error)
	}
}

func TestJobCancelRunning(t *testing.T) {
	t.Parallel()
	inj := fault.New(3)
	inj.Add(fault.Rule{Site: ChaosSiteJob, Kind: fault.KindLatency, Prob: 1, Delay: 30 * time.Second})
	jm := newJobManager(t, "", job.Options{Runners: 1})
	_, ts := newTestServer(t, Options{Jobs: jm, Inject: inj})

	resp := post(t, ts.URL+"/v1/jobs", `{"archs":["inca"],"models":["LeNet5"],"phases":["inference"]}`, nil)
	var snap job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, dresp)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel answered %d", dresp.StatusCode)
	}
	final := waitJob(t, ts.URL, snap.ID)
	if final.State != job.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, rr)
	if rr.StatusCode != http.StatusGone {
		t.Fatalf("cancelled job's result answered %d, want 410", rr.StatusCode)
	}
}

// TestJobCrashResumeByteIdentity is the deterministic in-process twin of
// the job_smoke kill -9 script: a job is interrupted mid-run with
// partial progress journaled and partial cells checkpointed in the
// result store, then manager + store reopen over the same directories
// and the resumed run must (a) serve a final body byte-identical to an
// uninterrupted run's, (b) replay every checkpointed cell from disk
// instead of re-simulating it, and (c) keep the original trace ID so
// all attempts join one trace tree.
func TestJobCrashResumeByteIdentity(t *testing.T) {
	t.Parallel()
	spec := `{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference","training"]}`
	const totalCells = 4

	// Reference run: clean dirs, no interruption.
	refBody := func() []byte {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		jm := newJobManager(t, t.TempDir(), job.Options{Runners: 1})
		_, ts := newTestServer(t, Options{Jobs: jm, Store: st})
		resp := post(t, ts.URL+"/v1/jobs", spec, nil)
		var snap job.Snapshot
		if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
			t.Fatal(err)
		}
		if got := waitJob(t, ts.URL, snap.ID); got.State != job.StateSucceeded {
			t.Fatalf("reference run: %s (err %q)", got.State, got.Error)
		}
		rr, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, rr)
	}()

	storeDir, jobDir := t.TempDir(), t.TempDir()

	// Interrupted run: one engine worker (MaxInflight pins the pool) and
	// a per-cell latency fault make progress slow and observable; the
	// manager closes mid-job, which leaves the journal without a terminal
	// record — the exact state a SIGKILL leaves behind.
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(11)
	inj.Add(fault.Rule{Site: "sweep/cell/*", Kind: fault.KindLatency, Prob: 1, Delay: 250 * time.Millisecond})
	jm1, err := job.Open(jobDir, job.Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr1 := obs.NewTracer(obs.WithRing(256))
	_, ts1 := newTestServer(t, Options{Jobs: jm1, Store: st1, Inject: inj, Tracer: tr1, MaxInflight: 64})
	resp := post(t, ts1.URL+"/v1/jobs", spec, nil)
	var snap job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	var preKill job.Snapshot
	deadline := time.Now().Add(20 * time.Second)
	for {
		var cur job.Snapshot
		getJSON(t, ts1.URL+"/v1/jobs/"+snap.ID, &cur)
		if cur.CellsDone >= 1 {
			preKill = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := jm1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if preKill.CellsDone >= totalCells {
		t.Fatalf("job finished before the interruption (done=%d); cannot exercise resume", preKill.CellsDone)
	}
	if preKill.TraceID == "" {
		t.Fatal("traced run must journal its trace ID before the kill")
	}

	// Restart: same directories, fresh server, no chaos. The journal
	// requeues the job; checkpointed cells must come from the store.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	jm2 := newJobManager(t, jobDir, job.Options{Runners: 1})
	tr2 := obs.NewTracer(obs.WithRing(256))
	_, ts2 := newTestServer(t, Options{Jobs: jm2, Store: st2, Tracer: tr2})

	final := waitJob(t, ts2.URL, snap.ID)
	if final.State != job.StateSucceeded {
		t.Fatalf("resumed run: %s (err %q)", final.State, final.Error)
	}
	if final.Resumed != 1 {
		t.Fatalf("resumed = %d, want 1", final.Resumed)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", final.Attempts)
	}
	if final.TraceID != preKill.TraceID {
		t.Fatalf("trace ID changed across resume: %s -> %s (attempts must join one trace)",
			preKill.TraceID, final.TraceID)
	}

	rr, err := http.Get(ts2.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	gotBody := readAll(t, rr)
	if string(gotBody) != string(refBody) {
		t.Fatalf("resumed body differs from the uninterrupted run's:\n got: %s\nwant: %s", gotBody, refBody)
	}

	// Zero re-simulation of checkpointed cells: every cell the first run
	// completed must have been answered by the store's disk tier.
	stats := st2.Stats()
	if stats.Hits < int64(preKill.CellsDone) {
		t.Fatalf("store hits = %d, want >= %d (checkpointed cells must replay from disk)",
			stats.Hits, preKill.CellsDone)
	}
	if stats.Entries != totalCells {
		t.Fatalf("store entries = %d, want %d", stats.Entries, totalCells)
	}
	// Every cell either replayed from disk or simulated exactly once —
	// more cells may have checkpointed between the last status poll and
	// the close, so Hits can exceed preKill.CellsDone, but the sum is
	// exact and proves zero re-simulation.
	if stats.Hits+stats.Puts != int64(totalCells) {
		t.Fatalf("store hits %d + puts %d != %d cells (a checkpointed cell re-simulated)",
			stats.Hits, stats.Puts, totalCells)
	}
}

// TestTuneJobFrontiersMatchSyncSweep pins the one tune runner: a tune
// job's result carries the same frontiers, byte for byte, and the same
// failed count as the synchronous /v1/sweep answer for the same spec.
// Each side runs on its own cold server, so cached flags agree too.
func TestTuneJobFrontiersMatchSyncSweep(t *testing.T) {
	t.Parallel()
	_, syncTS := newTestServer(t, Options{})
	jm := newJobManager(t, "", job.Options{Runners: 1})
	_, ts := newTestServer(t, Options{Jobs: jm})
	const spec = `{"models":["LeNet5","ResNet18"],"phases":["inference","training"],` +
		`"tune":{"dataflows":["is","os"],"max_per_dataflow":3}}`
	type tuneBody struct {
		Failed    int             `json:"failed"`
		Frontiers json.RawMessage `json:"frontiers"`
	}
	var sync, async tuneBody
	resp := post(t, syncTS.URL+"/v1/sweep", spec, nil)
	if raw := readAll(t, resp); resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &sync) != nil {
		t.Fatalf("sync tune answered %d: %s", resp.StatusCode, raw)
	}
	resp = post(t, ts.URL+"/v1/jobs", spec, nil)
	var snap job.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, ts.URL, snap.ID); final.State != job.StateSucceeded {
		t.Fatalf("tune job ended %s: %s", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if raw := readAll(t, resp); json.Unmarshal(raw, &async) != nil {
		t.Fatalf("job result: %s", raw)
	}
	if len(sync.Frontiers) == 0 || string(async.Frontiers) != string(sync.Frontiers) || async.Failed != sync.Failed {
		t.Fatalf("tune job (failed %d) %s\nvs sync sweep (failed %d) %s", async.Failed, async.Frontiers, sync.Failed, sync.Frontiers)
	}
}

// TestSweepPlanSizeCap pins the plan bound: a plan one cell over
// maxSweepCells fails before expansion, on /v1/sweep and on job
// submission alike, and a plan exactly at the cap still compiles.
func TestSweepPlanSizeCap(t *testing.T) {
	t.Parallel()
	plan := func(archs, models int) SweepRequest {
		req := SweepRequest{Phases: []string{"inference"}}
		for i := 0; i < archs; i++ {
			req.Archs = append(req.Archs, "is")
		}
		for i := 0; i < models; i++ {
			req.Models = append(req.Models, "LeNet5")
		}
		return req
	}
	over := plan(73, 137) // 10,001 cells
	jm := newJobManager(t, "", job.Options{Runners: 1})
	s, ts := newTestServer(t, Options{Jobs: jm})
	body, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/sweep", string(body), nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "10001 cells, over the limit of 10000") {
		t.Fatalf("over-cap sweep: status %d, body %.200s", resp.StatusCode, raw)
	}
	if _, err := s.SubmitJob(over); err == nil {
		t.Fatal("over-cap job submitted")
	}
	cs, err := compileSweep(plan(100, 100))
	if err != nil || len(cs.cells) != maxSweepCells {
		t.Fatalf("at-cap plan: %d cells, %v", len(cs.cells), err)
	}
}
