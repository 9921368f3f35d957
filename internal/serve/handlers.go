package serve

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/suite"
	"github.com/inca-arch/inca/internal/sweep"
)

// decodeBody parses a JSON request body strictly, bounded at the
// configured MaxBodyBytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// writeDecodeError maps a body-decoding failure onto its status: an
// oversized body is 413 (the MaxBytesReader tripped), anything else is a
// malformed request.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	s.writeError(w, http.StatusBadRequest, err)
}

// testHookAdmitted, when non-nil, runs inside the admitted section of
// every handler while it holds an execution slot; tests use it to pin a
// request in flight across a graceful shutdown.
var testHookAdmitted func()

// admitted wraps the execution section of a handler with bounded
// admission and the per-request deadline. It answers 503 + Retry-After
// itself when the server is saturated.
func (s *Server) admitted(w http.ResponseWriter, r *http.Request, run func(ctx context.Context)) {
	if err := s.admit.acquire(r.Context(), s.metrics); err != nil {
		s.writeUnavailable(w, err)
		return
	}
	defer s.admit.release(s.metrics)
	if testHookAdmitted != nil {
		testHookAdmitted()
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
	defer cancel()
	// Chaos hook: exec-site faults run while the request holds its
	// execution slot, so injected latency genuinely saturates admission.
	if err := s.opt.Inject.Hit(ctx, ChaosSiteExec); err != nil {
		s.writeError(w, statusForRunErr(err), err)
		return
	}
	run(ctx)
}

// statusForRunErr maps an execution error onto an HTTP status: deadline
// overruns are the gateway-timeout family, everything else is internal.
func statusForRunErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		// The client went away; the status is for the access log only.
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// handleSimulate evaluates one (config, network, phase) cell via the v2
// facade path (validated config → simulator → context-aware Simulate),
// memoized in the server's cache. The JSON response is the report's
// stable encoding; Accept: text/csv negotiates the per-layer CSV trace.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	net, err := nn.ByName(req.Model)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	phase, err := sim.ParsePhase(req.Phase)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ax, err := buildArch(req.Arch, req.Dataflow, req.Batch, req.Config)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	cells := []sweep.Cell{{Axis: &sweep.Axis{Arch: &ax, Config: ax.Base}, Network: net, Phase: phase}}
	s.coalesced(w, r, req, func(w http.ResponseWriter, r *http.Request) {
		s.admitted(w, r, func(ctx context.Context) {
			// The report is the response body (or its per-layer CSV).
			results, _, err := s.runCells(ctx, s.opt.Sharder, cells, true, nil)
			if err == nil && results[0].Err != nil {
				err = results[0].Err
			}
			if err != nil {
				s.writeError(w, statusForRunErr(err), err)
				return
			}
			rep := results[0].Report
			if wantsCSV(r) {
				w.Header().Set("Content-Type", "text/csv")
				if err := rep.WriteCSV(w); err != nil {
					s.log.Error("writing csv", "err", err)
				}
				return
			}
			// The wire form encodes to the report's bytes in one pass;
			// the report itself would be marshaled and then compacted.
			if wantsCost(r) {
				s.writeJSONCost(w, http.StatusOK, rep.Wire(), cost.FromContext(ctx).Snapshot())
				return
			}
			s.writeJSON(w, http.StatusOK, rep.Wire())
		})
	})
}

// handleSweep fans a declarative plan out on the engine. Per-cell
// failures are reported inline (the table stays rectangular); only an
// invalid plan or an exhausted deadline fails the whole request. Tune
// requests run the auto-tuner instead and are not coalesced.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	cs, err := compileSweep(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if cs.tune != nil {
		s.admitted(w, r, func(ctx context.Context) {
			fronts, failed, err := s.runTune(ctx, cs)
			if err != nil {
				s.writeError(w, statusForRunErr(err), err)
				return
			}
			s.writeJSON(w, http.StatusOK, SweepResponse{
				Cells: []CellResult{}, Failed: failed, Cache: s.cache.Stats(), Frontiers: fronts,
			})
		})
		return
	}
	s.coalesced(w, r, req, func(w http.ResponseWriter, r *http.Request) {
		s.admitted(w, r, func(ctx context.Context) {
			// Summary rows need only each report's totals.
			results, shard, err := s.runCells(ctx, s.opt.Sharder, cs.cells, false, nil)
			if err != nil {
				s.writeError(w, statusForRunErr(err), err)
				return
			}
			resp := s.sweepSummary(results, cs.newStyle)
			resp.Shard = shard
			if wantsCSV(r) {
				s.writeSweepCSV(w, resp)
				return
			}
			if wantsCost(r) {
				s.writeJSONCost(w, http.StatusOK, resp, cost.FromContext(ctx).Snapshot())
				return
			}
			s.writeJSON(w, http.StatusOK, resp)
		})
	})
}

// sweepSummary folds engine results into the /v1/sweep response body:
// one summary row per cell, in the order given. A sharded run feeds it
// totals-only reports whose totals, utilization and derived figures are
// bit-identical to a local run's full reports, which is the heart of
// the cluster's byte-identity guarantee.
func (s *Server) sweepSummary(results []sweep.Result, newStyle bool) SweepResponse {
	resp := SweepResponse{Cells: make([]CellResult, 0, len(results)), Cache: s.cache.Stats()}
	for _, res := range results {
		if res.Cached {
			resp.Cached++
		}
		if res.Err != nil {
			resp.Failed++
		}
		resp.Cells = append(resp.Cells, summaryRow(res, newStyle))
	}
	return resp
}

// summaryRow fills one cell's summary row from its engine result; sweep
// and job result bodies both build their rows here. Dataflow is set only
// for requests that select backends through the dataflow fields, so
// legacy bodies carry no dataflow key.
func summaryRow(res sweep.Result, newStyle bool) CellResult {
	row := CellResult{
		Arch:     res.Cell.Arch.Name,
		Override: res.Cell.Override,
		Network:  res.Cell.Network.Name,
		Phase:    res.Cell.Phase.String(),
		Cached:   res.Cached,
	}
	if newStyle {
		row.Dataflow = res.Cell.Dataflow()
	}
	if res.Err != nil {
		row.Error = res.Err.Error()
		return row
	}
	rep := res.Report
	row.EnergyJ = rep.Total.Energy.Total()
	row.LatencyS = rep.Total.Latency
	if perImage, err := rep.EnergyPerImage(); err == nil {
		row.EnergyPerImageJ = perImage
	}
	row.ThroughputIPS = rep.Throughput()
	row.Utilization = rep.Utilization()
	return row
}

// writeSweepCSV renders the sweep summary as CSV, one row per cell.
func (s *Server) writeSweepCSV(w http.ResponseWriter, resp SweepResponse) {
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"arch", "override", "network", "phase", "cached", "error",
		"energy_j", "latency_s", "energy_per_image_j", "throughput_ips", "utilization"})
	for _, c := range resp.Cells {
		_ = cw.Write([]string{
			c.Arch, c.Override, c.Network, c.Phase,
			fmt.Sprint(c.Cached), c.Error,
			fmt.Sprintf("%.6e", c.EnergyJ),
			fmt.Sprintf("%.6e", c.LatencyS),
			fmt.Sprintf("%.6e", c.EnergyPerImageJ),
			fmt.Sprintf("%.6e", c.ThroughputIPS),
			fmt.Sprintf("%.4f", c.Utilization),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		s.log.Error("writing sweep csv", "err", err)
	}
}

// handleModels lists the zoo with shape-level statistics and the
// registered dataflow backends able to simulate each model.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	all := nn.Zoo()
	ids := dataflow.IDs()
	infos := make([]ModelInfo, 0, len(all))
	for _, net := range all {
		infos = append(infos, ModelInfo{
			Name:        net.Name,
			Layers:      len(net.Layers),
			Weights:     net.TotalWeights(),
			Activations: net.TotalActivations(),
			MACs:        net.TotalMACs(),
			LightModel:  net.IsLightModel(),
			Dataflows:   ids,
		})
	}
	s.writeJSON(w, http.StatusOK, infos)
}

// experimentInfo is one /v1/experiments index entry.
type experimentInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Heavy bool   `json:"heavy"`
}

// handleExperimentIndex lists the runnable suite experiments.
func (s *Server) handleExperimentIndex(w http.ResponseWriter, _ *http.Request) {
	var infos []experimentInfo
	for _, e := range suite.All() {
		infos = append(infos, experimentInfo{ID: e.ID, Name: e.Name, Heavy: e.Heavy})
	}
	s.writeJSON(w, http.StatusOK, infos)
}

// experimentResponse is the /v1/experiments/{id} payload: the rendered
// paper table or figure, identical to cmd/inca-experiments' output for
// the same id.
type experimentResponse struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Heavy  bool   `json:"heavy"`
	Output string `json:"output"`
}

// handleExperiment renders one suite experiment. ?format=text or
// Accept: text/plain negotiates the raw table text.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	exp, err := suite.ByID(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.admitted(w, r, func(ctx context.Context) {
		out, err := exp.Run(ctx)
		if err != nil {
			s.writeError(w, statusForRunErr(err), err)
			return
		}
		if negotiated(r, "text", "text/plain") {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, out)
			return
		}
		s.writeJSON(w, http.StatusOK, experimentResponse{ID: exp.ID, Name: exp.Name, Heavy: exp.Heavy, Output: out})
	})
}

// livenessResponse is the JSON form of the liveness probe, served only
// on request (?format=json or Accept: application/json) — the default
// plain-text "ok" body is a contract probes and smoke tests compare
// byte for byte.
type livenessResponse struct {
	Status string    `json:"status"`
	Build  BuildInfo `json:"build"`
}

// handleLiveness is the liveness probe (/healthz and /healthz/live):
// the process is up and routing. It stays 200 through a graceful drain —
// a draining server is shutting down cleanly, not dead, and must not be
// restarted by its supervisor mid-drain. The build version always rides
// the X-Inca-Version header; the full build-info block is negotiated
// via ?format=json or Accept: application/json.
func (s *Server) handleLiveness(w http.ResponseWriter, r *http.Request) {
	build := buildInfo()
	w.Header().Set("X-Inca-Version", build.Version)
	if negotiated(r, "json", "application/json") {
		s.writeJSON(w, http.StatusOK, livenessResponse{Status: "ok", Build: build})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// readinessResponse is the /healthz/ready body in shard mode or on a
// server with the job API enabled: overall status, every peer's probe
// outcome (shard mode always probes at least one peer, so the field's
// presence is unchanged there), and the job subsystem's queue gauges.
// A plain server with neither keeps its plain-text "ok" contract.
type readinessResponse struct {
	Status  string       `json:"status"`
	ShardID string       `json:"shard_id,omitempty"`
	Peers   []PeerHealth `json:"peers,omitempty"`
	Jobs    *job.Stats   `json:"jobs,omitempty"`
	// SLO carries the burn-rate tracker's verdict when objectives are
	// configured; a fast burn degrades Status without turning traffic
	// away (degraded is still 200 — the signal fires before failure).
	SLO *SLOStats `json:"slo,omitempty"`
}

// handleReadiness is the readiness probe (/healthz/ready): 200 while the
// server accepts traffic, 503 + Retry-After once a graceful drain has
// begun, so load balancers stop routing before connections are refused.
// A coordinator (Options.Sharder set) reports per-peer health instead:
// it stays ready — "degraded" — while a minority of peers is down,
// because the ring rehashes lost cells onto survivors, and turns 503
// only when a majority is lost and a sweep could overwhelm the rest.
func (s *Server) handleReadiness(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.writeUnavailable(w, errors.New("draining: server is shutting down"))
		return
	}
	sh := s.opt.Sharder
	if sh == nil && s.opt.Jobs == nil && s.slo == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
		return
	}
	resp := readinessResponse{Status: "ready", ShardID: s.opt.ShardID}
	if jm := s.opt.Jobs; jm != nil {
		stats := jm.Stats()
		resp.Jobs = &stats
	}
	if s.slo != nil {
		stats := s.slo.stats()
		resp.SLO = &stats
		if stats.Status == "degraded" {
			// Burning the budget fast: still serving (200), but the
			// status tells balancers and operators before hard failure.
			resp.Status = "degraded"
		}
	}
	if sh == nil {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	peers := sh.Health(r.Context())
	down := 0
	for _, p := range peers {
		if !p.Up {
			down++
		}
	}
	resp.Peers = peers
	switch {
	case down == 0:
	case down*2 < len(peers):
		resp.Status = "degraded"
	default:
		resp.Status = "unavailable"
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics exports the counter snapshot: JSON by default, the
// Prometheus text exposition format when negotiated via Accept:
// text/plain or ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if negotiated(r, "prometheus", "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := writePrometheus(w, snap); err != nil {
			s.log.Error("writing prometheus metrics", "err", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// TraceResponse is the /v1/trace/{id} payload: every known span of one
// trace plus a rendered tree for human eyes. On a coordinator the span
// set is federated — the local ring merged with every peer's
// /v1/shard/trace answer — so a sharded sweep or a resumed job reads
// as a single cross-node trace.
type TraceResponse struct {
	TraceID string         `json:"trace_id"`
	Spans   []obs.SpanData `json:"spans"`
	Tree    string         `json:"tree"`
}

// SpanFetcher is the optional capability a Sharder grows to join the
// federated trace plane: given a trace ID, return every span the
// cluster's peers retain for it. The internal/cluster coordinator
// implements it by fanning GET /v1/shard/trace/{id} out through its
// breaker-gated dispatch clients; the serve layer discovers it by type
// assertion so the Sharder seam itself stays minimal.
type SpanFetcher interface {
	FetchSpans(ctx context.Context, traceID string) []obs.SpanData
}

// handleTrace serves one trace: the local ring's spans, merged — on a
// coordinator whose Sharder can fetch peer spans — with every shard's
// view of the same trace ID, deduplicated by span ID. The span list is
// JSON; ?format=text renders the assembled tree. 404 covers a trace
// unknown everywhere and a server running with tracing disabled.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.opt.Tracer
	if t == nil || t.Ring() == nil {
		s.writeError(w, http.StatusNotFound, errors.New("tracing is not enabled on this server"))
		return
	}
	id := r.PathValue("id")
	spans := t.Ring().Trace(id)
	if f, ok := s.opt.Sharder.(SpanFetcher); ok {
		spans = obs.MergeSpans(spans, f.FetchSpans(r.Context(), id))
	}
	if len(spans) == 0 {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not found (unknown ID or evicted from the ring)", id))
		return
	}
	tree := obs.DumpSpans(spans, id)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, tree)
		return
	}
	s.writeJSON(w, http.StatusOK, TraceResponse{TraceID: id, Spans: spans, Tree: tree})
}

// ShardTraceResponse is the /v1/shard/trace/{id} payload: one node's
// retained spans for a trace, raw — the federation protocol's unit of
// exchange. An empty span list is a 200, not a 404: "this node knows
// nothing" is a normal answer during assembly.
type ShardTraceResponse struct {
	ShardID string         `json:"shard_id,omitempty"`
	Spans   []obs.SpanData `json:"spans"`
}

// handleShardTrace serves this node's local-ring spans for one trace to
// a federating coordinator. Unlike /v1/trace/{id} it never federates
// itself (no fan-out loops) and answers 200 with an empty list for an
// unknown trace; 404 only means tracing is disabled here.
func (s *Server) handleShardTrace(w http.ResponseWriter, r *http.Request) {
	t := s.opt.Tracer
	if t == nil || t.Ring() == nil {
		s.writeError(w, http.StatusNotFound, errors.New("tracing is not enabled on this server"))
		return
	}
	id := r.PathValue("id")
	spans := t.Ring().Trace(id)
	if spans == nil {
		spans = []obs.SpanData{}
	}
	s.writeJSON(w, http.StatusOK, ShardTraceResponse{ShardID: s.opt.ShardID, Spans: spans})
}

// TraceInfo is one GET /v1/trace index entry, summarizing a trace the
// ring currently retains.
type TraceInfo struct {
	TraceID string `json:"trace_id"`
	// Root is the name of the trace's root span — or, when the true
	// root was evicted or lives on another node, the earliest retained
	// orphan.
	Root string `json:"root"`
	// Status is "error" when any retained span of the trace carries an
	// error or panic attribute, else "ok".
	Status string `json:"status"`
	Spans  int    `json:"spans"`
	// DurationS spans the earliest retained start to the latest end.
	DurationS float64 `json:"duration_s"`
}

// TraceIndexResponse is the GET /v1/trace payload.
type TraceIndexResponse struct {
	Traces []TraceInfo `json:"traces"`
	// Retained/Evicted expose the ring's bounded-retention state: a
	// nonzero Evicted means older traces have been partially or fully
	// dropped.
	Retained int   `json:"retained"`
	Evicted  int64 `json:"evicted"`
}

// handleTraceIndex lists recent traces from the local ring, newest
// first, capped by ?limit= (default 50). Local-only by design: the
// index is a discovery surface; federation happens per trace ID.
func (s *Server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	t := s.opt.Tracer
	if t == nil || t.Ring() == nil {
		s.writeError(w, http.StatusNotFound, errors.New("tracing is not enabled on this server"))
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid limit %q", v))
			return
		}
		limit = n
	}
	ring := t.Ring()
	spans := ring.Spans() // oldest first
	byTrace := make(map[string][]obs.SpanData, len(spans))
	order := make([]string, 0, len(spans)) // traces by last-seen span, oldest first
	for _, sd := range spans {
		if _, seen := byTrace[sd.TraceID]; seen {
			// Move to the back: the index sorts by most recent activity.
			for i, id := range order {
				if id == sd.TraceID {
					order = append(append(order[:i:i], order[i+1:]...), id)
					break
				}
			}
		} else {
			order = append(order, sd.TraceID)
		}
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
	}
	resp := TraceIndexResponse{Traces: []TraceInfo{}, Retained: ring.Len(), Evicted: ring.Evicted()}
	for i := len(order) - 1; i >= 0 && len(resp.Traces) < limit; i-- {
		resp.Traces = append(resp.Traces, summarizeTrace(order[i], byTrace[order[i]]))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// summarizeTrace folds one trace's retained spans into its index row.
func summarizeTrace(id string, spans []obs.SpanData) TraceInfo {
	info := TraceInfo{TraceID: id, Status: "ok", Spans: len(spans)}
	known := make(map[string]bool, len(spans))
	for _, sd := range spans {
		known[sd.SpanID] = true
	}
	var rootAt, minStart, maxEnd int64
	for _, sd := range spans {
		if _, ok := sd.Attr("error"); ok {
			info.Status = "error"
		} else if _, ok := sd.Attr("panic"); ok {
			info.Status = "error"
		}
		start, end := sd.Start.UnixNano(), sd.End.UnixNano()
		if minStart == 0 || start < minStart {
			minStart = start
		}
		if end > maxEnd {
			maxEnd = end
		}
		// Root: the earliest-started span without a retained parent.
		if sd.ParentID == "" || !known[sd.ParentID] {
			if info.Root == "" || start < rootAt {
				info.Root, rootAt = sd.Name, start
			}
		}
	}
	if maxEnd > minStart {
		info.DurationS = float64(maxEnd-minStart) / 1e9
	}
	return info
}

// handleUsage serves the server-lifetime cost ledger: the sum of every
// finalized per-request/per-job cost summary plus the per
// model×dataflow cell-attribution rows.
func (s *Server) handleUsage(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.usage.snapshot())
}
