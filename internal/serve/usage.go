package serve

import (
	"sort"
	"sync"

	"github.com/inca-arch/inca/internal/obs/cost"
	"github.com/inca-arch/inca/internal/sweep"
)

// usageAccount is the server-lifetime cost ledger behind GET /v1/usage
// and the inca_cost_* Prometheus families. Two books are kept:
//
//   - totals: the sum of every finalized per-request (and per-job)
//     cost.Summary — by construction the /v1/usage totals equal the sum
//     of the "cost" blocks individual callers saw;
//   - rows: per model×dataflow cell attribution, fed one evaluated
//     cell at a time, so the paper's IS/WS/OS comparisons are readable
//     as operational cost, not just as offline experiment output.
//
// Both books add the same cost.CellCounts values (accountResults
// classifies each result once), so the rows' cell figures sum to the
// totals'.
//
// Cells evaluated on remote shards are attributed on the node that
// gathered them (the coordinator) and on the shard that ran them —
// each node's ledger describes its own view of the traffic.
type usageAccount struct {
	mu       sync.Mutex
	requests int64
	jobs     int64
	totals   cost.Summary
	rows     map[usageKey]*UsageRow
}

type usageKey struct{ model, dataflow string }

// UsageRow is one model×dataflow attribution row of /v1/usage.
type UsageRow struct {
	Model    string `json:"model"`
	Dataflow string `json:"dataflow"`
	cost.CellCounts
}

// UsageResponse is the GET /v1/usage body.
type UsageResponse struct {
	// Requests counts finalized HTTP requests (all routes); Jobs counts
	// finalized background job executions. Both contribute to Totals.
	Requests int64 `json:"requests"`
	Jobs     int64 `json:"jobs"`
	// Totals is the sum of every per-request/per-job cost summary.
	Totals cost.Summary `json:"totals"`
	// Rows attribute cells per model×dataflow, sorted by model then
	// dataflow.
	Rows []UsageRow `json:"rows"`
}

func newUsageAccount() *usageAccount {
	return &usageAccount{rows: make(map[usageKey]*UsageRow)}
}

// addTotals folds one finalized request/job summary into the ledger.
func (u *usageAccount) addTotals(s cost.Summary, job bool) {
	u.mu.Lock()
	if job {
		u.jobs++
	} else {
		u.requests++
	}
	u.totals.Add(s)
	u.mu.Unlock()
}

// addCell attributes one classified cell to its model×dataflow row.
func (u *usageAccount) addCell(model, dataflow string, c cost.CellCounts) {
	u.mu.Lock()
	k := usageKey{model, dataflow}
	row := u.rows[k]
	if row == nil {
		row = &UsageRow{Model: model, Dataflow: dataflow}
		u.rows[k] = row
	}
	row.Add(c)
	u.mu.Unlock()
}

// snapshot renders the ledger for /v1/usage and /metrics.
func (u *usageAccount) snapshot() UsageResponse {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := UsageResponse{
		Requests: u.requests,
		Jobs:     u.jobs,
		Totals:   u.totals,
		Rows:     make([]UsageRow, 0, len(u.rows)),
	}
	for _, row := range u.rows {
		out.Rows = append(out.Rows, *row)
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Model != out.Rows[j].Model {
			return out.Rows[i].Model < out.Rows[j].Model
		}
		return out.Rows[i].Dataflow < out.Rows[j].Dataflow
	})
	return out
}

// accountResults charges a request's materialized sweep results to its
// cost tally and to the server's usage ledger. runCells calls it for
// every run, local or sharded, so the tally's cell counts and
// energy/latency sums match the response's simulation reports exactly,
// whichever node or path produced them. Each result is classified once;
// the tally and its usage row add the same value.
func (s *Server) accountResults(t *cost.Tally, results []sweep.Result) {
	for _, r := range results {
		var energy, latency float64
		if r.Err == nil && r.Report != nil {
			energy = r.Report.Total.Energy.Total()
			latency = r.Report.Total.Latency
		}
		c := cost.Cell(r.Cached, r.Err != nil, r.Attempts, energy, latency)
		t.AddCells(c)
		model := ""
		if r.Cell.Network != nil {
			model = r.Cell.Network.Name
		}
		dataflow := r.Cell.Dataflow()
		if dataflow == "" {
			dataflow = r.Cell.Arch.Name
		}
		s.usage.addCell(model, dataflow, c)
	}
}
