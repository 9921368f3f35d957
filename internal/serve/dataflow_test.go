package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// TestSimulateExplicitDataflow pins the new wire field: an explicit
// "dataflow" selects the backend, and arch-name spellings of the same
// backend serve the identical body.
func TestSimulateExplicitDataflow(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	byDataflow := post(t, ts.URL+"/v1/simulate",
		`{"dataflow":"is","model":"LeNet5","phase":"inference"}`, nil)
	if byDataflow.StatusCode != http.StatusOK {
		t.Fatalf("dataflow request status = %d", byDataflow.StatusCode)
	}
	byArch := post(t, ts.URL+"/v1/simulate",
		`{"arch":"inca","model":"LeNet5","phase":"inference"}`, nil)
	if byArch.StatusCode != http.StatusOK {
		t.Fatalf("arch request status = %d", byArch.StatusCode)
	}
	a, b := readAll(t, byDataflow), readAll(t, byArch)
	if !bytes.Equal(a, b) {
		t.Fatalf("dataflow body differs from arch body:\n%.150s\nvs\n%.150s", a, b)
	}
}

// TestSimulateOSDataflow exercises a backend only reachable through the
// registry: the output-stationary machine, including its phase guard.
func TestSimulateOSDataflow(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/simulate",
		`{"dataflow":"os","model":"LeNet5","phase":"inference"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("OS inference status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var rep struct {
		Arch string `json:"arch"`
	}
	if err := json.Unmarshal(readAll(t, resp), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Arch != "OS-Baseline" {
		t.Errorf("arch = %q, want OS-Baseline", rep.Arch)
	}
	// Training is structurally unsupported: a typed 500-family error, not
	// a hang or panic.
	resp = post(t, ts.URL+"/v1/simulate",
		`{"dataflow":"os","model":"LeNet5","phase":"training"}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("OS training status = %d, want 500", resp.StatusCode)
	}
	readAll(t, resp)
	// Legacy arch names normalize server-side through the registry.
	resp = post(t, ts.URL+"/v1/simulate",
		`{"dataflow":"TitanRTX","model":"LeNet5","phase":"inference"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("legacy name via dataflow field: status %d", resp.StatusCode)
	}
	readAll(t, resp)
	// Unknown dataflows fail fast with 400.
	resp = post(t, ts.URL+"/v1/simulate",
		`{"dataflow":"nonesuch","model":"LeNet5","phase":"inference"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown dataflow status = %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestSweepDataflowAxes pins the sweep additions: "dataflows" axes join
// the plan, and only such new-style requests carry per-cell dataflow
// IDs.
func TestSweepDataflowAxes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/sweep",
		`{"archs":["inca"],"dataflows":["os"],"models":["LeNet5"],"phases":["inference"]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var sr SweepResponse
	if err := json.Unmarshal(readAll(t, resp), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 2 || sr.Failed != 0 {
		t.Fatalf("cells = %d, failed = %d", len(sr.Cells), sr.Failed)
	}
	want := map[string]string{"INCA": "is", "OS-Baseline": "os"}
	for _, c := range sr.Cells {
		if c.Dataflow != want[c.Arch] {
			t.Errorf("cell %s: dataflow %q, want %q", c.Arch, c.Dataflow, want[c.Arch])
		}
	}

	// Legacy body: no dataflow fields anywhere in the response.
	resp = post(t, ts.URL+"/v1/sweep",
		`{"archs":["inca"],"models":["LeNet5"],"phases":["inference"]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy status = %d", resp.StatusCode)
	}
	body := readAll(t, resp)
	if bytes.Contains(body, []byte(`"dataflow"`)) {
		t.Errorf("legacy sweep body leaks dataflow field: %.200s", body)
	}
}

// TestSweepTune pins the auto-tuner endpoint: a TuneSpec returns one
// Pareto frontier per model × phase.
func TestSweepTune(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := post(t, ts.URL+"/v1/sweep",
		`{"models":["ResNet18"],"phases":["inference"],"tune":{"dataflows":["is","os"],"max_per_dataflow":3}}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	body := readAll(t, resp)
	if !bytes.Contains(body, []byte(`"phase":"inference"`)) {
		t.Errorf("frontier phase not serialized by name: %.200s", body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Frontiers) != 1 {
		t.Fatalf("frontiers = %d, want 1", len(sr.Frontiers))
	}
	f := sr.Frontiers[0]
	if f.Network != "ResNet18" || f.Failed != 0 || len(f.Pareto) == 0 {
		t.Fatalf("frontier = %+v", f)
	}
	for _, c := range f.Pareto {
		if c.Dataflow != "is" && c.Dataflow != "os" {
			t.Errorf("unexpected dataflow %q on frontier", c.Dataflow)
		}
		if c.EnergyJ <= 0 || c.LatencyS <= 0 || c.AreaMM2 <= 0 {
			t.Errorf("%s: non-positive objective", c.Label)
		}
	}
	// A tune request without models is a 400, not an empty search.
	resp = post(t, ts.URL+"/v1/sweep", `{"models":[],"phases":[],"tune":{}}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty tune status = %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestModelsListDataflows pins the capability listing on /v1/models.
func TestModelsListDataflows(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	if err := json.Unmarshal(readAll(t, resp), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("empty model list")
	}
	for _, m := range infos {
		seen := map[string]bool{}
		for _, id := range m.Dataflows {
			seen[id] = true
		}
		for _, want := range []string{"is", "ws", "os", "gpu"} {
			if !seen[want] {
				t.Errorf("%s: missing dataflow %q in %v", m.Name, want, m.Dataflows)
			}
		}
	}
}

// TestArchSpellings pins name → axis on every request path: each
// spelling of a backend in a sweep's "archs" and "dataflows" and in
// /v1/simulate's "arch" and "dataflow" resolves to the same axis and
// cache key. Sweeps run at batch 8 (the GPU ignores it), simulates at
// the default batch.
func TestArchSpellings(t *testing.T) {
	batched := func(cfg arch.Config, n int) arch.Config {
		cfg.BatchSize = n
		return cfg
	}
	gpu := wantAxis{"TitanRTX", "gpu", arch.Config{Name: "TitanRTX"}, true, "TitanRTX/gpu/fixed/LeNet5/inference"}
	for _, b := range []struct {
		spellings       []string
		sweep, simulate wantAxis
	}{
		{[]string{"inca", "INCA", "is", "input-stationary", "Input-stationary"},
			wantAxis{"INCA", "is", batched(arch.INCA(), 8), false, "INCA/is/1cfae3426c8ce366/LeNet5/inference"},
			wantAxis{"INCA", "is", arch.INCA(), false, "INCA/is/aa9f13f3d5b2fffc/LeNet5/inference"}},
		{[]string{"baseline", "WS-Baseline", "ws", "weight-stationary"},
			wantAxis{"WS-Baseline", "ws", batched(arch.Baseline(), 8), false, "WS-Baseline/ws/5eb0c8b459124f23/LeNet5/inference"},
			wantAxis{"WS-Baseline", "ws", arch.Baseline(), false, "WS-Baseline/ws/4d2c1b1630cd1703/LeNet5/inference"}},
		{[]string{"gpu", "TitanRTX", "titan-rtx", "roofline"}, gpu, gpu},
		{[]string{"os", "OS-Baseline", "outstat", "mac-do"},
			wantAxis{"OS-Baseline", "os", batched(arch.OutStationary(), 8), false, "OS-Baseline/os/e155909e23f20625/LeNet5/inference"},
			wantAxis{"OS-Baseline", "os", arch.OutStationary(), false, "OS-Baseline/os/2385c19862967f9d/LeNet5/inference"}},
	} {
		for _, s := range b.spellings {
			for _, field := range []string{"archs", "dataflows"} {
				req := SweepRequest{Models: []string{"LeNet5"}, Phases: []string{"inference"}, Batch: 8}
				if field == "archs" {
					req.Archs = []string{s}
				} else {
					req.Dataflows = []string{s}
				}
				cs, err := compileSweep(req)
				if err != nil {
					t.Fatalf("%s %q: %v", field, s, err)
				}
				checkAxis(t, field+" "+s, cs.cells[0], b.sweep)
			}
			for _, field := range []string{"arch", "dataflow"} {
				name, id := s, ""
				if field == "dataflow" {
					name, id = "", s
				}
				checkSimulateAxis(t, field+" "+s, name, id, 0, nil, b.simulate)
			}
		}
	}

	// Custom configs at batch 16. Without a dataflow the config's own
	// Dataflow field picks the backend; a nameless config takes the
	// backend's display name.
	custom := func(cfg arch.Config, name string) arch.Config {
		cfg.Name = name
		return cfg
	}
	for _, c := range []struct {
		arch, dataflow string
		cfg            arch.Config
		want           wantAxis
	}{
		{"inca", "", custom(arch.INCA(), ""),
			wantAxis{"Input-stationary", "is", custom(batched(arch.INCA(), 16), ""), false, "Input-stationary/is/a3ef1c133994c08c/LeNet5/inference"}},
		{"inca", "", custom(arch.INCA(), "MyINCA"),
			wantAxis{"MyINCA", "is", custom(batched(arch.INCA(), 16), "MyINCA"), false, "MyINCA/is/1188ff60eeeb493b/LeNet5/inference"}},
		{"gpu", "", custom(arch.Baseline(), ""),
			wantAxis{"Weight-stationary", "ws", custom(batched(arch.Baseline(), 16), ""), false, "Weight-stationary/ws/a6a3de06a4472b28/LeNet5/inference"}},
		{"", "is", custom(arch.INCA(), ""),
			wantAxis{"Input-stationary", "is", custom(batched(arch.INCA(), 16), ""), false, "Input-stationary/is/a3ef1c133994c08c/LeNet5/inference"}},
		{"", "ws", custom(arch.Baseline(), "MyWS"),
			wantAxis{"MyWS", "ws", custom(batched(arch.Baseline(), 16), "MyWS"), false, "MyWS/ws/992665c3a2707f80/LeNet5/inference"}},
		{"", "gpu", custom(arch.INCA(), ""),
			wantAxis{"GPU roofline", "gpu", custom(arch.INCA(), ""), true, "GPU roofline/gpu/fixed/LeNet5/inference"}},
	} {
		var buf bytes.Buffer
		if err := c.cfg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		raw := json.RawMessage(buf.Bytes())
		checkSimulateAxis(t, fmt.Sprintf("arch %q dataflow %q config %q", c.arch, c.dataflow, c.cfg.Name),
			c.arch, c.dataflow, 16, &raw, c.want)
	}
}

// wantAxis is the resolved axis a spelling must give, with its cell's
// LeNet5 inference cache key.
type wantAxis struct {
	name, dataflow string
	base           arch.Config
	fixed          bool
	key            string
}

// checkSimulateAxis resolves a /v1/simulate selection as the handler
// does and checks the axis of its one cell.
func checkSimulateAxis(t *testing.T, what, name, id string, batch int, raw *json.RawMessage, want wantAxis) {
	t.Helper()
	ax, err := buildArch(name, id, batch, raw)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkAxis(t, what, sweep.Cell{Axis: &sweep.Axis{Arch: &ax, Config: ax.Base}, Network: nn.LeNet5(), Phase: sim.Inference}, want)
}

func checkAxis(t *testing.T, what string, c sweep.Cell, want wantAxis) {
	t.Helper()
	a := c.Arch
	if a.Name != want.name || a.Dataflow != want.dataflow || a.Fixed != want.fixed || a.Base != want.base {
		t.Errorf("%s: axis {%q %q fixed=%v base %q batch %d}, want {%q %q fixed=%v base %q batch %d}", what,
			a.Name, a.Dataflow, a.Fixed, a.Base.Name, a.Base.BatchSize,
			want.name, want.dataflow, want.fixed, want.base.Name, want.base.BatchSize)
	}
	if got := c.Key(); got != want.key {
		t.Errorf("%s: key %q, want %q", what, got, want.key)
	}
}
