package serve

import (
	"context"
	"fmt"
	"net/http"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// ShardCell is one fully-resolved sweep cell on the wire: the shape a
// cluster coordinator posts to a peer's /v1/shard/sweep. Unlike a
// SweepRequest — a declarative cross product — a shard request names an
// explicit, usually sparse, subset of a coordinating plan's cells, so
// every axis value rides along resolved. The cell's axis is not sent:
// the shard re-resolves it from Dataflow and Config through
// sweep.Resolve, as the coordinator did, so both sides derive the same
// name, fixed-ness and cache key.
type ShardCell struct {
	// Seq is the cell's position in the coordinating plan; it is echoed
	// back so the coordinator can merge partials into plan order.
	Seq int `json:"seq"`
	// Dataflow is the backend's registry ID; it is required.
	Dataflow string `json:"dataflow"`
	// Config is the cell's arch.Config in its versioned binary encoding
	// (arch.Config.AppendWire), base64 inside the JSON envelope. It
	// decodes to the exact Config, invalid UTF-8 in its names, -0 and
	// NaN payloads included, so the shard's cache key (and therefore its
	// result) is byte-identical to the coordinator evaluating the cell
	// locally. A shard that predates the encoding answers 400.
	Config   []byte `json:"config"`
	Override string `json:"override,omitempty"`
	Model    string `json:"model"`
	Phase    string `json:"phase"`
}

// ShardSweepRequest is the POST /v1/shard/sweep body.
type ShardSweepRequest struct {
	Cells []ShardCell `json:"cells"`
	// Totals asks for each report without its per-layer rows
	// (sim.Report.WireTotals): the coordinator sets it when the caller
	// keeps only summary rows. Omitted, the response bytes are the
	// full-report encoding. Shards decode the body strictly, so a shard
	// that predates the field answers 400: coordinator and shards
	// upgrade together.
	Totals bool `json:"totals,omitempty"`
}

// ShardCellResult is one evaluated cell in a shard response: the report
// in its stable wire form (full, encoding to the same bytes as a local
// run's report, or totals-only when the request asked for totals), or
// an error string for cells whose evaluation failed.
// The report is typed rather than raw JSON so each side converts it
// once: the shard encodes it straight into the response, and the
// coordinator's decoder fills it in the same pass that reads the body.
type ShardCellResult struct {
	Seq      int             `json:"seq"`
	Cached   bool            `json:"cached"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Report   *sim.WireReport `json:"report,omitempty"`
}

// ShardSweepResponse is the POST /v1/shard/sweep payload.
type ShardSweepResponse struct {
	ShardID string            `json:"shard_id,omitempty"`
	Cells   []ShardCellResult `json:"cells"`
	Cache   sweep.CacheStats  `json:"cache"`
}

// PeerHealth is one peer's probe outcome in a shard-mode readiness
// response and in ShardSummary.
type PeerHealth struct {
	Peer    string `json:"peer"`
	ShardID string `json:"shard_id,omitempty"`
	Up      bool   `json:"up"`
	Error   string `json:"error,omitempty"`
}

// ShardSummary describes how a scatter/gather sweep was executed; it
// rides on SweepResponse only in shard mode, so single-node response
// bodies stay byte-identical.
type ShardSummary struct {
	// Peers is the cluster size the ring was built over; Down counts
	// peers marked unhealthy during the sweep.
	Peers int `json:"peers"`
	Down  int `json:"down,omitempty"`
	// Rounds counts dispatch waves: 1 for a clean scatter, +1 per
	// rehash of lost cells onto survivors.
	Rounds int `json:"rounds"`
	// Rehashed counts cells re-dispatched after their owner was lost;
	// Retried counts cells whose evaluation took more than one attempt
	// (shard-side transient retries included).
	Rehashed int `json:"rehashed,omitempty"`
	Retried  int `json:"retried,omitempty"`
	// Local counts cells the coordinator evaluated itself (its own ring
	// share, plus last-resort cells when every peer is down).
	Local int `json:"local,omitempty"`
}

// Sharder is the seam the cluster coordinator plugs into the server
// through Options: runCells hands it the expanded cell list and gets
// back one result per cell in input order. Implementations live outside
// this package (internal/cluster) so serve never imports the HTTP
// client it is itself the server for.
type Sharder interface {
	// Sweep evaluates cells across the cluster, returning results in
	// input order (results[i] answers cells[i]). With layers false the
	// reports may be totals-only (sim.Report.TotalsOnly): callers that
	// return or persist a report pass true.
	Sweep(ctx context.Context, cells []sweep.Cell, layers bool) ([]sweep.Result, ShardSummary, error)
	// Health probes every peer, for readiness reporting.
	Health(ctx context.Context) []PeerHealth
}

// WireCells lowers resolved sweep cells onto their wire form. It is the
// inverse of cellsFromWire and is exported for the coordinator. A run
// of cells that share an axis, as a plan's cells and their partitions
// do, encodes its config once and shares the bytes.
func WireCells(cells []sweep.Cell) []ShardCell {
	out := make([]ShardCell, 0, len(cells))
	var buf []byte
	var cfg []byte
	for i := range cells {
		c := &cells[i]
		if i == 0 || c.Axis != cells[i-1].Axis {
			start := len(buf)
			buf = c.Config.AppendWire(buf)
			cfg = buf[start:len(buf):len(buf)]
		}
		out = append(out, ShardCell{
			Seq:      c.Seq,
			Dataflow: c.Arch.Dataflow,
			Config:   cfg,
			Override: c.Override,
			Model:    c.Network.Name,
			Phase:    c.Phase.String(),
		})
	}
	return out
}

// wireAxisKey is what the cells that share an axis agree on: the
// dataflow as the wire spells it, the override and the config bytes.
type wireAxisKey struct{ dataflow, override, config string }

// cellsFromWire rebuilds resolved sweep cells from their wire form,
// resolving each distinct wireAxisKey once: the cells that share one
// point at one axis. The axis comes from sweep.Resolve over the wire's
// dataflow and config, the same call that built it on the coordinator,
// so the round trip preserves each cell's cache key: the binary decode
// restores the exact Config, and Resolve derives the axis name and
// fixed-ness from it and the registry. The config is validated unless
// the backend ignores it (not Configurable, such as the GPU model, whose
// zero Config fails validation).
func cellsFromWire(wire []ShardCell) ([]sweep.Cell, error) {
	cells := make([]sweep.Cell, 0, len(wire))
	axes := make(map[wireAxisKey]*sweep.Axis)
	for _, wc := range wire {
		if wc.Dataflow == "" {
			return nil, fmt.Errorf("cell %d names no dataflow", wc.Seq)
		}
		net, err := nn.ByName(wc.Model)
		if err != nil {
			return nil, err
		}
		phase, err := sim.ParsePhase(wc.Phase)
		if err != nil {
			return nil, err
		}
		// The key is built inside the index expressions, where the
		// config's string conversion does not allocate.
		ax := axes[wireAxisKey{wc.Dataflow, wc.Override, string(wc.Config)}]
		if ax == nil {
			if ax, err = axisFromWire(wc); err != nil {
				return nil, err
			}
			axes[wireAxisKey{wc.Dataflow, wc.Override, string(wc.Config)}] = ax
		}
		cells = append(cells, sweep.Cell{Seq: wc.Seq, Axis: ax, Network: net, Phase: phase})
	}
	return cells, nil
}

// axisFromWire decodes, resolves and validates one wire cell's axis.
func axisFromWire(wc ShardCell) (*sweep.Axis, error) {
	cfg, err := arch.DecodeWire(wc.Config)
	if err != nil {
		return nil, fmt.Errorf("cell %d config: %w", wc.Seq, err)
	}
	a, err := sweep.Resolve(wc.Dataflow, &cfg, 0)
	if err != nil {
		return nil, fmt.Errorf("cell %d: %w", wc.Seq, err)
	}
	if !a.Fixed {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("cell %d config: %w", wc.Seq, err)
		}
	}
	w := &struct {
		axis sweep.Axis
		arch sweep.Arch
	}{arch: a}
	w.axis = sweep.Axis{Arch: &w.arch, Override: wc.Override, Config: cfg}
	return &w.axis, nil
}

// handleShardSweep evaluates an explicit cell list for a cluster
// coordinator: the gather half of scatter/gather. Cells run on the same
// engine, cache, and retry policy as a local sweep — a shard is just an
// inca-serve node — and each result carries the report's stable
// encoding, full or (when the request sets totals) without layers, so
// the coordinator's merged table is byte-identical to a single-node run.
func (s *Server) handleShardSweep(w http.ResponseWriter, r *http.Request) {
	var req ShardSweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if len(req.Cells) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("shard sweep request names no cells"))
		return
	}
	cells, err := cellsFromWire(req.Cells)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.admitted(w, r, func(ctx context.Context) {
		// A shard never re-shards: its cells run on the local engine and
		// are charged to its own ledger, while the coordinator charges the
		// gathered results to the request's.
		results, _, err := s.runCells(ctx, nil, cells, true, nil)
		if err != nil {
			s.writeError(w, statusForRunErr(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, ShardSweepResponse{
			ShardID: s.opt.ShardID,
			Cells:   wireResults(results, !req.Totals),
			Cache:   s.cache.Stats(),
		})
	})
}

// wireResults lowers engine results onto a shard response's cells — the
// inverse of ShardResults. Each cell echoes its Seq from the request
// (cellsFromWire carried it into the engine cell). With layers false the
// reports go out totals-only.
func wireResults(results []sweep.Result, layers bool) []ShardCellResult {
	out := make([]ShardCellResult, 0, len(results))
	for _, res := range results {
		cr := ShardCellResult{Seq: res.Cell.Seq, Cached: res.Cached, Attempts: res.Attempts}
		if res.Err != nil {
			cr.Error = res.Err.Error()
		} else if layers {
			cr.Report = res.Report.Wire()
		} else {
			cr.Report = res.Report.WireTotals()
		}
		out = append(out, cr)
	}
	return out
}

// ShardResults lifts a shard response's cells back into engine results
// for the given request cells (results[i] answers cells[i] of the
// request that produced resp). Exported for the coordinator's merge
// path.
func ShardResults(cells []sweep.Cell, resp ShardSweepResponse) ([]sweep.Result, error) {
	if len(resp.Cells) != len(cells) {
		return nil, fmt.Errorf("shard returned %d results for %d cells", len(resp.Cells), len(cells))
	}
	out := make([]sweep.Result, 0, len(cells))
	for i, cr := range resp.Cells {
		if cr.Seq != cells[i].Seq {
			return nil, fmt.Errorf("shard result %d answers seq %d, want %d", i, cr.Seq, cells[i].Seq)
		}
		res := sweep.Result{Cell: cells[i], Cached: cr.Cached, Attempts: cr.Attempts}
		switch {
		case cr.Error != "":
			res.Err = fmt.Errorf("%s", cr.Error)
		case cr.Report == nil:
			return nil, fmt.Errorf("shard result seq %d carries neither report nor error", cr.Seq)
		default:
			rep, err := cr.Report.Report()
			if err != nil {
				return nil, fmt.Errorf("decoding cell seq %d report: %w", cr.Seq, err)
			}
			res.Report = rep
		}
		out = append(out, res)
	}
	return out, nil
}
