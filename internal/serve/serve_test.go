package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/baseline"
	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// newTestServer builds a Server with tight defaults for tests.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the response.
func post(t testing.TB, url string, body string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directReport evaluates one cell through the v2 facade path the server
// wraps: validated config → model by dataflow → context-aware Simulate.
func directReport(t *testing.T, cfg arch.Config, model string, phase sim.Phase) *sim.Report {
	t.Helper()
	net, err := nn.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	var sm sim.Simulator
	if cfg.Dataflow == arch.InputStationary {
		sm = sim.Wrap(core.New(cfg), "is")
	} else {
		sm = sim.Wrap(baseline.New(cfg), "ws")
	}
	rep, err := sm.Simulate(context.Background(), net, phase)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSimulateMatchesDirectFacade pins the /v1/simulate body to
// json.Marshal of the directly simulated report plus a newline, across
// archs, models and phases, and with ?cost=1 once the spliced cost block
// is stripped.
func TestSimulateMatchesDirectFacade(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/simulate",
		`{"arch":"inca","model":"ResNet18","phase":"inference"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type = %q", got)
	}
	if resp.Header.Get(requestIDHeader) == "" {
		t.Fatal("missing request id header")
	}
	readAll(t, resp)

	for _, c := range []struct {
		arch  string
		cfg   arch.Config
		model string
		phase sim.Phase
	}{
		{"inca", arch.INCA(), "ResNet18", sim.Inference},
		{"inca", arch.INCA(), "ResNet18", sim.Training},
		{"baseline", arch.Baseline(), "VGG16", sim.Inference},
		{"baseline", arch.Baseline(), "LeNet5", sim.Training},
	} {
		want, err := json.Marshal(directReport(t, c.cfg, c.model, c.phase))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		body := fmt.Sprintf(`{"arch":%q,"model":%q,"phase":%q}`, c.arch, c.model, c.phase)
		if got := readAll(t, post(t, ts.URL+"/v1/simulate", body, nil)); !bytes.Equal(got, want) {
			t.Fatalf("%s: served body differs from direct facade encoding:\n got %.120s...\nwant %.120s...", body, got, want)
		}
		if got := stripCost(t, readAll(t, post(t, ts.URL+"/v1/simulate?cost=1", body, nil))); !bytes.Equal(got, want) {
			t.Fatalf("%s: cost body minus its block differs from direct facade encoding:\n got %.120s...\nwant %.120s...", body, got, want)
		}
	}
}

func TestSimulateCSVNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	hdr := http.Header{"Accept": []string{"text/csv"}}
	resp := post(t, ts.URL+"/v1/simulate",
		`{"arch":"baseline","model":"LeNet5","phase":"inference"}`, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/csv" {
		t.Fatalf("content type = %q", got)
	}
	body := readAll(t, resp)

	var want bytes.Buffer
	rep := directReport(t, arch.Baseline(), "LeNet5", sim.Inference)
	if err := rep.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("served CSV differs from Report.WriteCSV")
	}
}

func TestSimulateCustomConfigAndBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := arch.INCA()
	cfg.Name = "MyINCA"
	var cfgJSON bytes.Buffer
	if err := cfg.WriteJSON(&cfgJSON); err != nil {
		t.Fatal(err)
	}
	body := `{"arch":"inca","model":"LeNet5","phase":"training","batch":16,"config":` + cfgJSON.String() + `}`
	resp := post(t, ts.URL+"/v1/simulate", body, nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var rep struct {
		Arch  string `json:"arch"`
		Batch int    `json:"batch"`
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Arch != "MyINCA" || rep.Batch != 16 || rep.Phase != "training" {
		t.Fatalf("rep = %+v", rep)
	}
}

// TestSimulateRejectsUnrunnableConfig sends custom configurations the
// simulators would divide by zero on: each must fail validation as a
// 400 naming the field, not run and come back as a 500 panic.
func TestSimulateRejectsUnrunnableConfig(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		dataflow string
		cfg      arch.Config
		edit     func(*arch.Config)
		want     string
	}{
		{"ws", arch.Baseline(), func(c *arch.Config) { c.CellBits = 0 }, "invalid cell bits"},
		{"os", arch.OutStationary(), func(c *arch.Config) { c.CellBits = 9 }, "invalid cell bits"},
		{"is", arch.INCA(), func(c *arch.Config) { c.SubarraysPerADC = 0 }, "invalid ADC sharing"},
	} {
		tc.edit(&tc.cfg)
		var cfgJSON bytes.Buffer
		if err := tc.cfg.WriteJSON(&cfgJSON); err != nil {
			t.Fatal(err)
		}
		body := `{"dataflow":"` + tc.dataflow + `","model":"LeNet5","phase":"inference","config":` + cfgJSON.String() + `}`
		resp := post(t, ts.URL+"/v1/simulate", body, nil)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
			t.Errorf("%s: status = %d, body %s; want 400 naming %q", tc.dataflow, resp.StatusCode, raw, tc.want)
		}
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		`{"arch":"tpu","model":"ResNet18","phase":"inference"}`,
		`{"arch":"inca","model":"NoSuchNet","phase":"inference"}`,
		`{"arch":"inca","model":"ResNet18","phase":"sideways"}`,
		`{"arch":"inca","model":"ResNet18","phase":"inference","bogus":1}`,
		`not json`,
	} {
		resp := post(t, ts.URL+"/v1/simulate", body, nil)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("body %q: error payload %q", body, raw)
		}
	}
}

func TestSweepPlanExpansion(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{
		"archs": ["inca", "baseline"],
		"models": ["LeNet5", "VGG16-CIFAR"],
		"phases": ["inference", "training"],
		"overrides": [{"batch": 4}, {"name": "small", "array_size": 32, "adc_bits": 6}]
	}`
	resp := post(t, ts.URL+"/v1/sweep", body, nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var sr SweepResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 16 { // 2 archs × 2 overrides × 2 nets × 2 phases
		t.Fatalf("cells = %d, want 16", len(sr.Cells))
	}
	if sr.Failed != 0 {
		t.Fatalf("failed cells: %+v", sr.Cells)
	}
	if sr.Cells[0].Override != "batch=4" || sr.Cells[8].Override != "batch=4" {
		t.Fatalf("override naming: %+v", sr.Cells[0])
	}
	for _, c := range sr.Cells {
		if c.EnergyJ <= 0 || c.LatencyS <= 0 {
			t.Fatalf("cell missing metrics: %+v", c)
		}
	}
	if s.Cache().Len() == 0 {
		t.Fatal("sweep did not populate the server cache")
	}

	// The identical sweep again must be served from cache, cell for cell.
	resp2 := post(t, ts.URL+"/v1/sweep", body, nil)
	var sr2 SweepResponse
	if err := json.Unmarshal(readAll(t, resp2), &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Cached != len(sr2.Cells) {
		t.Fatalf("second run cached %d of %d cells", sr2.Cached, len(sr2.Cells))
	}
}

func TestSweepCSV(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/sweep?format=csv",
		`{"archs":["inca"],"models":["LeNet5"],"phases":["inference"]}`, nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "arch,override,network,phase") {
		t.Fatalf("csv:\n%s", raw)
	}
	if !strings.HasPrefix(lines[1], "INCA,,LeNet5,inference") {
		t.Fatalf("row: %s", lines[1])
	}
}

func TestSweepBadPlan(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/sweep", `{"archs":["inca"],"models":[],"phases":["inference"]}`, nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty plan status = %d, want 400", resp.StatusCode)
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	var infos []ModelInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 10 {
		t.Fatalf("models = %d, want 10", len(infos))
	}
	byName := map[string]ModelInfo{}
	for _, m := range infos {
		byName[m.Name] = m
	}
	if m := byName["VGG16"]; m.Weights == 0 || m.MACs == 0 || m.LightModel {
		t.Fatalf("VGG16 = %+v", m)
	}
	if m := byName["MobileNetV2"]; !m.LightModel {
		t.Fatalf("MobileNetV2 = %+v", m)
	}
}

// TestContentNegotiation pins the one negotiation rule every endpoint
// with alternative representations shares: ?format=X, or an Accept
// header that contains the MIME type among other types or parameters.
func TestContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sweepBody := `{"archs":["inca"],"models":["LeNet5"],"phases":["inference"]}`
	cases := []struct {
		name, method, path, body, format, accept, marker string
	}{
		{"experiment", http.MethodGet, "/v1/experiments/table5", "", "text", "text/plain", "(mm²)\ncomponent"},
		{"metrics", http.MethodGet, "/metrics", "", "prometheus", "text/plain", "# TYPE inca_uptime_seconds gauge"},
		{"liveness", http.MethodGet, "/healthz/live", "", "json", "application/json", `"build":`},
		{"sweep", http.MethodPost, "/v1/sweep", sweepBody, "csv", "text/csv", "arch,"},
	}
	fetch := func(method, url, body string, hdr http.Header) string {
		if method == http.MethodPost {
			return string(readAll(t, post(t, url, body, hdr)))
		}
		return string(readAll(t, get(t, url, hdr)))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if out := fetch(c.method, ts.URL+c.path, c.body, nil); strings.Contains(out, c.marker) {
				t.Fatalf("default representation already carries %q:\n%.200s", c.marker, out)
			}
			if out := fetch(c.method, ts.URL+c.path+"?format="+c.format, c.body, nil); !strings.Contains(out, c.marker) {
				t.Errorf("?format=%s: missing %q:\n%.200s", c.format, c.marker, out)
			}
			for _, accept := range []string{c.accept, c.accept + "; charset=utf-8", "application/xml, " + c.accept + ";q=0.9"} {
				hdr := http.Header{}
				hdr.Set("Accept", accept)
				if out := fetch(c.method, ts.URL+c.path, c.body, hdr); !strings.Contains(out, c.marker) {
					t.Errorf("Accept: %s: missing %q:\n%.200s", accept, c.marker, out)
				}
			}
		})
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/experiments/table5")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var er struct {
		ID     string `json:"id"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if er.ID != "table5" || !strings.Contains(er.Output, "Table V") {
		t.Fatalf("experiment payload: %+v", er)
	}

	// Unknown id → 404.
	resp404, err := http.Get(ts.URL + "/v1/experiments/nope")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp404)
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp404.StatusCode)
	}

	// The experiment index lists every suite entry.
	respIdx, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var idx []experimentInfo
	if err := json.Unmarshal(readAll(t, respIdx), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx) != 20 {
		t.Fatalf("experiment index = %d entries, want 20", len(idx))
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxInflight: 3, QueueDepth: 7})
	// Generate some traffic first: a hit-producing pair of simulates and
	// one 400.
	post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil).Body.Close()
	post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil).Body.Close()
	post(t, ts.URL+"/v1/simulate", `bad`, nil).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 4 {
		t.Fatalf("requests = %d, want 4", snap.Requests)
	}
	if snap.Status2xx != 2 || snap.Status4xx != 1 {
		t.Fatalf("status counts: %+v", snap)
	}
	if snap.MaxInflight != 3 || snap.QueueDepth != 7 {
		t.Fatalf("config gauges: %+v", snap)
	}
	if snap.Cache.Misses != 1 || snap.Cache.Hits != 1 || snap.Cache.Entries != 1 {
		t.Fatalf("cache stats: %+v", snap.Cache)
	}
	if snap.Latency.Count != 3 {
		t.Fatalf("latency count = %d, want 3 (metrics GET not yet recorded)", snap.Latency.Count)
	}
	if snap.KernelBudget < 1 || snap.RequestWorkers < 1 {
		t.Fatalf("budget gauges: %+v", snap)
	}
}

func TestSaturatedQueueReturns503WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInflight: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	// Fill both the execution slot and the single queue ticket directly;
	// the next request must be rejected immediately, not block.
	s.admit.tickets <- struct{}{}
	s.admit.tickets <- struct{}{}
	defer func() { <-s.admit.tickets; <-s.admit.tickets }()

	done := make(chan *http.Response, 1)
	go func() {
		done <- post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil)
	}()
	select {
	case resp := <-done:
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, raw)
		}
		if got := resp.Header.Get("Retry-After"); got != "2" {
			t.Fatalf("Retry-After = %q, want \"2\"", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("saturated request blocked instead of failing fast")
	}
}

func TestQueuedRequestTimesOutAs503(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInflight: 1, QueueDepth: 4})
	// Hold the only execution slot so the request queues, then let its
	// client-side deadline expire: the server must release the ticket and
	// count a rejection.
	s.admit.slots <- struct{}{}
	defer func() { <-s.admit.slots }()

	client := &http.Client{Timeout: 300 * time.Millisecond}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"arch":"inca","model":"LeNet5","phase":"inference"}`))
	if _, err := client.Do(req); err == nil {
		t.Fatal("expected client timeout while queued")
	}
	// The ticket must come back once the server notices the abandonment.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.admit.tickets) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned request leaked its admission ticket")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	hdr := http.Header{requestIDHeader: []string{"caller-supplied-7"}}
	resp := post(t, ts.URL+"/v1/simulate", `{"arch":"inca","model":"LeNet5","phase":"inference"}`, hdr)
	readAll(t, resp)
	if got := resp.Header.Get(requestIDHeader); got != "caller-supplied-7" {
		t.Fatalf("request id = %q, want caller-supplied-7", got)
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/simulate") // GET on a POST route
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate = %d, want 405", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp2.StatusCode)
	}
}
