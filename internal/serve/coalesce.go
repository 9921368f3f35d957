package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"github.com/inca-arch/inca/internal/obs/cost"
)

// CoalesceOptions configures the request-coalescing layer: identical
// POST /v1/simulate and /v1/sweep requests arriving within a size/
// max-wait window are collapsed onto one engine execution, and every
// caller receives a replay of the one recorded response. The memo cache
// already deduplicates sequential repeats cell by cell; coalescing
// deduplicates concurrent whole requests before they reach the
// admission gate, so a thundering herd of N identical requests costs
// one execution slot instead of N.
//
// Off by default: replayed responses share one body (including the
// leader's cache-stats snapshot), which is a semantic change embedders
// must opt into. cmd/inca-serve enables it with -coalesce.
type CoalesceOptions struct {
	// Enabled turns the layer on.
	Enabled bool
	// MaxWait is the window, measured from the moment a flight is
	// registered, during which identical requests join it — while the
	// execution is still running and, after it lands, as a bounded-
	// staleness replay. <= 0 means 250ms.
	MaxWait time.Duration
}

// maxJoiners bounds how many callers may ride one flight beyond the
// leader; arrivals past the cap execute normally (and typically hit the
// memo cache).
const maxJoiners = 1024

// flight is one coalesced execution: the leader runs the handler against
// a recorder and closes done; joiners wait on done and replay the
// recording through their own response writers.
type flight struct {
	start   time.Time
	done    chan struct{}
	joiners int
	rec     *responseRecorder
}

// coalescer holds the in-flight (and recently-landed, within MaxWait)
// flights by canonical request key.
type coalescer struct {
	maxWait time.Duration
	mu      sync.Mutex
	flights map[string]*flight
}

func newCoalescer(opt CoalesceOptions) *coalescer {
	if opt.MaxWait <= 0 {
		opt.MaxWait = 250 * time.Millisecond
	}
	return &coalescer{maxWait: opt.MaxWait, flights: make(map[string]*flight)}
}

// responseRecorder captures a handler's full response so it can be
// replayed to every coalesced caller. The header map is seeded from the
// leader's live writer so handlers that read their own response headers
// (writeError reads X-Trace-Id for the error body) behave normally.
type responseRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newResponseRecorder(seed http.Header) *responseRecorder {
	h := make(http.Header, len(seed))
	for k, v := range seed {
		h[k] = append([]string(nil), v...)
	}
	return &responseRecorder{header: h}
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// replay writes the recording through w. Correlation headers the
// instrument middleware already stamped on w (request ID, trace IDs) are
// kept — each coalesced caller retains its own identifiers; everything
// else (Content-Type, Retry-After, ...) comes from the recording.
func (r *responseRecorder) replay(w http.ResponseWriter) {
	dst := w.Header()
	for k, v := range r.header {
		if dst.Get(k) == "" {
			dst[k] = v
		}
	}
	status := r.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(r.body.Bytes())
}

// coalesceKey derives the canonical flight key for a decoded request
// body: the route, the negotiated response shape (a CSV caller must
// never replay a JSON recording), and a digest of the body's canonical
// re-encoding, which normalizes field order and whitespace so two
// byte-different but semantically identical bodies coalesce.
func coalesceKey(r *http.Request, body any) (string, bool) {
	canon, err := json.Marshal(body)
	if err != nil {
		return "", false
	}
	format := "json"
	if wantsCSV(r) {
		format = "csv"
	}
	if wantsCost(r) {
		// A cost-opted caller must never replay a recording without the
		// cost block (or vice versa): the flag is part of the shape.
		format += "+cost"
	}
	sum := sha256.Sum256(canon)
	return r.URL.Path + "|" + format + "|" + hex.EncodeToString(sum[:]), true
}

// coalesced wraps a handler's execution section with the coalescing
// layer. The first caller of a key becomes the flight's leader: it runs
// exec against a recorder — on a context detached from its own
// connection, so one impatient caller cannot fail the whole herd — and
// replays the recording to itself. Callers arriving within the MaxWait
// window join the flight, wait for it to land (or their own context to
// end), replay the same recording, and are tallied as coalesced hits.
// With the layer disabled, exec runs directly against w.
func (s *Server) coalesced(w http.ResponseWriter, r *http.Request, body any, exec http.HandlerFunc) {
	c := s.coalesce
	if c == nil {
		exec(w, r)
		return
	}
	key, ok := coalesceKey(r, body)
	if !ok {
		exec(w, r)
		return
	}

	c.mu.Lock()
	f := c.flights[key]
	if f != nil && time.Since(f.start) > c.maxWait {
		// Window closed: the entry is a stale recording (or a hung
		// flight past its joinable life). Replace it; existing waiters
		// hold their own pointer and are unaffected.
		f = nil
	}
	if f != nil && f.joiners < maxJoiners {
		f.joiners++
		c.mu.Unlock()
		select {
		case <-f.done:
			f.rec.replay(w)
			s.cache.AddCoalesced(1)
			cost.FromContext(r.Context()).CoalescedHit()
		case <-r.Context().Done():
			// The joiner gave up before the flight landed: it received
			// nothing and answers with its own context error.
			err := r.Context().Err()
			s.writeError(w, statusForRunErr(err), err)
		}
		return
	}
	if f != nil {
		// Flight full: fall through to a private execution (the memo
		// cache still deduplicates the simulation work cell by cell).
		c.mu.Unlock()
		exec(w, r)
		return
	}
	f = &flight{start: time.Now(), done: make(chan struct{}), rec: newResponseRecorder(w.Header())}
	c.flights[key] = f
	c.mu.Unlock()

	defer func() {
		close(f.done)
		// Keep the landed recording joinable for the rest of its window
		// (bounded-staleness replay for near-simultaneous arrivals),
		// then drop it so the flight map tracks concurrency, not
		// history.
		remain := c.maxWait - time.Since(f.start)
		drop := func() {
			c.mu.Lock()
			if c.flights[key] == f {
				delete(c.flights, key)
			}
			c.mu.Unlock()
		}
		if remain <= 0 {
			drop()
		} else {
			time.AfterFunc(remain, drop)
		}
	}()
	// Detach the execution from the leader's connection: values (trace
	// span, request ID) carry over, cancellation does not, so the
	// admitted section's RequestTimeout is the only bound. A leader that
	// disconnects mid-flight still produces the recording its joiners
	// are waiting on.
	exec(f.rec, r.WithContext(context.WithoutCancel(r.Context())))
	f.rec.replay(w)
}
