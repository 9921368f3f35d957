package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/sweep"
	"github.com/inca-arch/inca/internal/tune"
)

// SimulateRequest is the /v1/simulate body: one (config, network, phase)
// cell. Dataflow selects a registered backend by ID or alias ("is",
// "ws", "os", "gpu"; legacy architecture names normalize server-side);
// Arch is the pre-registry spelling ("inca", "baseline", "gpu") kept
// for wire compatibility. Config, when present, replaces the built-in
// configuration entirely and is built on the selected dataflow (or, with
// no Dataflow, on the backend its Dataflow field selects, exactly like
// the v2 facade).
type SimulateRequest struct {
	Arch     string `json:"arch,omitempty"`
	Dataflow string `json:"dataflow,omitempty"`
	Model    string `json:"model"`
	Phase    string `json:"phase"`
	// Batch overrides the configuration's batch size when > 0. Ignored
	// for the fixed GPU roofline.
	Batch  int              `json:"batch,omitempty"`
	Config *json.RawMessage `json:"config,omitempty"`
}

// OverrideSpec is one declarative configuration transform of a sweep
// request — the JSON form of sweep.Override for the knobs the paper's
// studies turn (batch scaling, ADC precision, array geometry, 3D planes).
// Zero fields leave the base configuration untouched.
type OverrideSpec struct {
	Name          string `json:"name,omitempty"`
	Batch         int    `json:"batch,omitempty"`
	ADCBits       int    `json:"adc_bits,omitempty"`
	ArraySize     int    `json:"array_size,omitempty"`
	StackedPlanes int    `json:"stacked_planes,omitempty"`
}

// label derives a stable override name when the caller did not give one.
func (o OverrideSpec) label() string {
	if o.Name != "" {
		return o.Name
	}
	var parts []string
	if o.Batch > 0 {
		parts = append(parts, fmt.Sprintf("batch=%d", o.Batch))
	}
	if o.ADCBits > 0 {
		parts = append(parts, fmt.Sprintf("adc=%d", o.ADCBits))
	}
	if o.ArraySize > 0 {
		parts = append(parts, fmt.Sprintf("array=%d", o.ArraySize))
	}
	if o.StackedPlanes > 0 {
		parts = append(parts, fmt.Sprintf("planes=%d", o.StackedPlanes))
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, ",")
}

// override lowers the spec onto the engine's transform type.
func (o OverrideSpec) override() sweep.Override {
	return sweep.Override{
		Name: o.label(),
		Apply: func(cfg arch.Config) arch.Config {
			if o.Batch > 0 {
				cfg.BatchSize = o.Batch
			}
			if o.ADCBits > 0 {
				cfg.ADCBits = o.ADCBits
			}
			if o.ArraySize > 0 {
				cfg.SubarrayRows, cfg.SubarrayCols = o.ArraySize, o.ArraySize
			}
			if o.StackedPlanes > 0 {
				cfg.StackedPlanes = o.StackedPlanes
			}
			return cfg
		},
	}
}

// TuneSpec asks /v1/sweep to run the mapping auto-tuner instead of a
// plain cross-product: every legal tile/partition point of the selected
// dataflows is evaluated and the response carries one Pareto frontier
// (energy × latency × area) per model × phase.
type TuneSpec struct {
	// Dataflows narrows the searched backends (IDs or aliases); empty
	// means every registered backend.
	Dataflows []string `json:"dataflows,omitempty"`
	// MaxPerDataflow bounds the mapping points searched per backend;
	// <= 0 means the full space.
	MaxPerDataflow int `json:"max_per_dataflow,omitempty"`
}

// SweepRequest is the /v1/sweep body: a declarative plan fanned out on
// the engine — archs × models × phases × overrides, exactly the
// cross-product shape of the paper's Figs 11–16. Dataflows adds
// registered backends by ID ("os", ...) as additional architecture axes;
// Tune switches the request to the mapping auto-tuner.
type SweepRequest struct {
	Archs     []string `json:"archs,omitempty"`
	Dataflows []string `json:"dataflows,omitempty"`
	Models    []string `json:"models"`
	Phases    []string `json:"phases"`
	// Batch overrides every non-fixed arch's base batch size when > 0.
	Batch     int            `json:"batch,omitempty"`
	Overrides []OverrideSpec `json:"overrides,omitempty"`
	Tune      *TuneSpec      `json:"tune,omitempty"`
}

// CellResult is one sweep cell's summary row in a /v1/sweep response.
// Dataflow is populated only for requests that select backends through
// the dataflow fields, keeping legacy response bodies byte-identical.
type CellResult struct {
	Arch            string  `json:"arch"`
	Dataflow        string  `json:"dataflow,omitempty"`
	Override        string  `json:"override,omitempty"`
	Network         string  `json:"network"`
	Phase           string  `json:"phase"`
	Cached          bool    `json:"cached"`
	Error           string  `json:"error,omitempty"`
	EnergyJ         float64 `json:"energy_j"`
	LatencyS        float64 `json:"latency_s"`
	EnergyPerImageJ float64 `json:"energy_per_image_j"`
	ThroughputIPS   float64 `json:"throughput_ips"`
	Utilization     float64 `json:"utilization"`
}

// SweepResponse is the /v1/sweep payload. Frontiers is present only for
// tune requests: one Pareto frontier per model × phase, in request
// order. Shard is present only when the sweep ran scatter/gather across
// a cluster; single-node bodies stay byte-identical.
type SweepResponse struct {
	Cells     []CellResult     `json:"cells"`
	Cached    int              `json:"cached"`
	Failed    int              `json:"failed"`
	Cache     sweep.CacheStats `json:"cache"`
	Frontiers []tune.Frontier  `json:"frontiers,omitempty"`
	Shard     *ShardSummary    `json:"shard,omitempty"`
}

// ModelInfo is one /v1/models entry. Dataflows lists the registered
// backend IDs that can simulate the model, with the phases each
// supports in Capabilities.
type ModelInfo struct {
	Name        string   `json:"name"`
	Layers      int      `json:"layers"`
	Weights     int64    `json:"weights"`
	Activations int64    `json:"activations"`
	MACs        int64    `json:"macs"`
	LightModel  bool     `json:"light_model"`
	Dataflows   []string `json:"dataflows"`
}

// errorBody is the uniform JSON error payload. TraceID, set when the
// server traces requests, is the root span's trace ID — the handle a
// caller quotes to GET /v1/trace/{id} to see where its request failed.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// writeJSON encodes v with a stable layout. Failures after the header is
// out can only be logged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.log.Error("encoding response", "err", err)
	}
}

// writeError answers with the uniform error payload. The trace ID rides
// along when tracing is on: the instrument middleware stamped it on the
// response headers before the handler ran, so it is read back from
// there rather than threading the request through every call site.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{Error: err.Error(), TraceID: w.Header().Get(traceIDHeader)})
}

// retryAfterSeconds renders the configured Retry-After hint in whole
// seconds. With RetryJitterSeed set, a seeded stream adds up to a
// quarter of the base (at least one second), so a synchronized cohort
// of rejected clients spreads its retries instead of re-stampeding the
// admission gate in lockstep; with a zero seed the hint is exact.
func (s *Server) retryAfterSeconds() int {
	base := int(s.opt.RetryAfter.Seconds() + 0.5)
	if s.jitter == nil {
		return base
	}
	span := base / 4
	if span < 1 {
		span = 1
	}
	s.jitterMu.Lock()
	j := s.jitter.Intn(span + 1)
	s.jitterMu.Unlock()
	return base + j
}

// writeUnavailable answers 503 with the Retry-After hint — the admission
// path's contract: overload is explicit and immediately retriable.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.writeError(w, http.StatusServiceUnavailable, err)
}

// negotiated is the service's one content-negotiation rule: the request
// asks for a representation with ?format=<format>, or with an Accept
// header that contains its MIME type (parameters such as charset and
// other listed types are allowed).
func negotiated(r *http.Request, format, mime string) bool {
	return r.URL.Query().Get("format") == format || strings.Contains(r.Header.Get("Accept"), mime)
}

// wantsCSV reports whether the request negotiated CSV output.
func wantsCSV(r *http.Request) bool { return negotiated(r, "csv", "text/csv") }

// costHeader is the header form of the cost opt-in (?cost=1 works too).
const costHeader = "X-Inca-Cost"

// wantsCost reports whether the caller opted into the "cost" block on
// /v1/simulate, /v1/sweep, and /v1/jobs/{id} responses. Opt-in keeps
// the default bodies byte-identical to earlier releases — the golden-
// body and cluster byte-identity guarantees survive the cost plane.
func wantsCost(r *http.Request) bool {
	if v := r.URL.Query().Get("cost"); v == "1" || v == "true" {
		return true
	}
	v := r.Header.Get(costHeader)
	return v == "1" || v == "true"
}

// writeJSONCost writes v as writeJSON would, with the cost summary
// spliced in as a top-level "cost" member. Splicing (rather than a
// struct field) works for any object-shaped payload — including
// sim.Report, whose stable custom encoding cannot grow fields — and
// guarantees the non-cost rendering stays byte-identical.
func (s *Server) writeJSONCost(w http.ResponseWriter, status int, v any, sum cost.Summary) {
	body, err := json.Marshal(v)
	if err != nil || len(body) == 0 || body[len(body)-1] != '}' {
		s.writeJSON(w, status, v)
		return
	}
	costJSON, err := json.Marshal(sum)
	if err != nil {
		s.writeJSON(w, status, v)
		return
	}
	buf := make([]byte, 0, len(body)+len(costJSON)+12)
	buf = append(buf, body[:len(body)-1]...)
	if len(body) > 2 { // non-empty object needs the separating comma
		buf = append(buf, ',')
	}
	buf = append(buf, `"cost":`...)
	buf = append(buf, costJSON...)
	buf = append(buf, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf); err != nil {
		s.log.Error("writing response", "err", err)
	}
}

// buildArch resolves an architecture selection (legacy arch name or
// explicit dataflow ID, plus optional batch override and custom
// configuration) into a sweep axis through sweep.Resolve. A custom
// configuration sent without a dataflow picks its backend by its own
// Dataflow field, whatever the arch name; it is validated here so a bad
// request fails with 400 before admission.
func buildArch(name, dataflowID string, batch int, rawCfg *json.RawMessage) (sweep.Arch, error) {
	id := dataflowID
	var custom *arch.Config
	if rawCfg != nil {
		cfg, err := arch.ReadJSON(bytes.NewReader(*rawCfg))
		if err != nil {
			return sweep.Arch{}, err
		}
		custom = &cfg
	} else if id == "" {
		id = name
	}
	return sweep.Resolve(id, custom, batch)
}
