package job

import (
	"encoding/json"
	"fmt"

	"github.com/inca-arch/inca/internal/wal"
)

// jnlMagic names the journal format: an internal/wal log whose payloads
// are JSON records (see jrecord). Being a wal log, it is only ever
// appended to, so a crash can tear at most the final record, and open
// truncates a torn tail instead of failing — the surviving prefix
// replays cleanly.
const jnlMagic = "INCAJNL1"

// Journal record operations. Each op is one append; replaying the
// sequence rebuilds the job table exactly.
const (
	opSubmit   = "submit"   // new job: id, spec, created
	opRun      = "run"      // a runner picked the job up: attempts
	opResume   = "resume"   // a restarted manager requeued the job
	opTrace    = "trace"    // the job's root span identity (first run)
	opProgress = "progress" // checkpoint: cells total/done so far
	opCost     = "cost"     // the run's cost summary (JSON), latest wins
	opDone     = "done"     // terminal: state, result body or error
)

// jrecord is the JSON payload of one journal record. Only the fields
// relevant to each op are populated; unknown ops are skipped at replay
// for forward compatibility. Spec and Body are JSON strings, not
// embedded raw messages: marshaling a json.RawMessage compacts it, and
// the replayed result body must be byte-identical to the one an
// uninterrupted run served (trailing newline included).
type jrecord struct {
	Op      string `json:"op"`
	ID      string `json:"id"`
	Spec    string `json:"spec,omitempty"`
	Created int64  `json:"created_unix_nano,omitempty"`
	State   State  `json:"state,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Total   int    `json:"total,omitempty"`
	Done    int    `json:"done,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	Body    string `json:"body,omitempty"`
	Cost    string `json:"cost,omitempty"`
	Error   string `json:"error,omitempty"`
}

// openJournal opens (creating if needed) the journal file and replays
// every cleanly framed record, truncating a torn or corrupt tail to the
// last good record — the same recovery the result store applies to its
// segments. torn reports whether anything was dropped.
func openJournal(path string) (*wal.Log, []jrecord, bool, error) {
	var recs []jrecord
	log, torn, err := wal.Open(path, jnlMagic, true, func(_ int64, payload []byte) bool {
		var rec jrecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
			return false // framed but undecodable: stop, do not replay
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("job: %w", err)
	}
	return log, recs, torn, nil
}
