// Package client is the retrying HTTP client for the inca simulation
// service: typed wrappers over /v1/simulate, /v1/sweep, /v1/models, and
// /metrics that honor the service's own overload contract. Transport
// failures and 5xx answers retry with capped exponential backoff and
// seeded jitter, a Retry-After header raises the floor of the next wait,
// context deadlines cut the loop short (a retry that cannot finish in
// time is not attempted), and 4xx answers are terminal — the request is
// wrong, repeating it cannot help.
//
// The retry vocabulary is shared with the rest of the robustness layer:
// APIError implements fault.Transient, so fault.IsTransient classifies
// client errors exactly like sweep-engine ones.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
)

// ErrAttemptsExhausted reports a request that stayed retryable through
// every allowed attempt. The terminal error it wraps carries the last
// failure.
var ErrAttemptsExhausted = errors.New("client: retry attempts exhausted")

// APIError is a non-2xx answer from the service.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the service's JSON error body (or a truncated raw body
	// when the answer was not the uniform error payload).
	Message string
	// RetryAfter is the parsed Retry-After hint, 0 when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// Transient reports whether retrying can help: 5xx answers are the
// server's problem, 4xx are the caller's. Implements fault.Transient.
func (e *APIError) Transient() bool { return e.Status >= 500 }

// Options tunes a Client. The zero value is usable.
type Options struct {
	// HTTPClient is the transport; nil means a dedicated client with a
	// 90s overall timeout (per-call contexts bound individual requests).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, including the first; <= 0
	// means 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; <= 0 means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; <= 0 means 2s. A larger
	// Retry-After hint from the server always wins.
	MaxDelay time.Duration
	// Seed drives the jitter stream, making a client's retry schedule
	// reproducible.
	Seed int64
	// Logger receives one line per retry; nil discards them.
	Logger *slog.Logger
	// OnTrace, when non-nil, receives the server's X-Trace-Id from each
	// exchange that carried one — the handle for GET /v1/trace/{id} on a
	// tracing server. Called once per attempt, including failed ones
	// (a failed attempt's trace is exactly the one worth fetching).
	OnTrace func(traceID string)
	// BreakerThreshold arms the client's circuit breaker: after that
	// many consecutive transient failures (across calls — the streak is
	// per-client, not per-request) the breaker opens and every call
	// fails fast with ErrCircuitOpen until BreakerCooldown elapses, then
	// one half-open probe decides whether to close it again. The
	// fail-fast error is marked transient, so a tripped host classifies
	// exactly like a dead one. <= 0 leaves the breaker off.
	BreakerThreshold int
	// BreakerCooldown is the base open-state cooldown; the actual wait
	// draws from [cooldown/2, cooldown) on the Seed stream. <= 0 means
	// 5s. Only consulted when BreakerThreshold > 0.
	BreakerCooldown time.Duration
}

// Client talks to one inca service instance. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	backoff *fault.Backoff
	brk     *breaker
	opt     Options
	log     *slog.Logger
}

// New returns a client for the service at baseURL (scheme + host, e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opt Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q needs an http(s) scheme", baseURL)
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 4
	}
	if opt.BaseDelay <= 0 {
		opt.BaseDelay = 100 * time.Millisecond
	}
	if opt.MaxDelay <= 0 {
		opt.MaxDelay = 2 * time.Second
	}
	hc := opt.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 90 * time.Second}
	}
	log := opt.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var brk *breaker
	if opt.BreakerThreshold > 0 {
		if opt.BreakerCooldown <= 0 {
			opt.BreakerCooldown = 5 * time.Second
		}
		brk = newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, opt.Seed)
	}
	return &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      hc,
		backoff: fault.NewBackoff(opt.BaseDelay, opt.MaxDelay, opt.Seed),
		brk:     brk,
		opt:     opt,
		log:     log,
	}, nil
}

// Simulate evaluates one cell on the service and returns the decoded
// report. The report round-trips the service's stable wire schema, so
// re-encoding it reproduces the server's bytes.
func (c *Client) Simulate(ctx context.Context, req serve.SimulateRequest) (*sim.Report, error) {
	var rep sim.Report
	if err := c.call(ctx, http.MethodPost, "/v1/simulate", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Sweep fans a declarative plan out on the service.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (*serve.SweepResponse, error) {
	var resp serve.SweepResponse
	if err := c.call(ctx, http.MethodPost, "/v1/sweep", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ShardSweep evaluates an explicit cell list on the service — the
// dispatch half of the cluster's scatter/gather. It rides the same
// retry loop as every wrapper; when the attempts run out the returned
// ErrAttemptsExhausted still wraps the last failure, so the
// coordinator's fault.IsTransient check classifies a dead shard as
// transient and rehashes its cells onto survivors.
func (c *Client) ShardSweep(ctx context.Context, req serve.ShardSweepRequest) (*serve.ShardSweepResponse, error) {
	var resp serve.ShardSweepResponse
	if err := c.call(ctx, http.MethodPost, "/v1/shard/sweep", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready probes the service's readiness endpoint with a single
// unretried exchange: a health probe that retried would report the
// cluster healthier than it is. It returns nil for 200 (ready or
// degraded) and the classified error otherwise.
func (c *Client) Ready(ctx context.Context) error {
	return c.exchange(ctx, http.MethodGet, "/healthz/ready", nil, nil)
}

// BreakerStats reports the circuit breaker's trip and short-circuit
// counters. The zero value when no breaker is armed.
func (c *Client) BreakerStats() BreakerStats {
	return c.brk.stats()
}

// StoreExport fetches the service's full result corpus as JSON Lines —
// the bytes a sibling's POST /v1/store/import accepts.
func (c *Client) StoreExport(ctx context.Context) ([]byte, error) {
	var raw []byte
	if err := c.callRaw(ctx, http.MethodGet, "/v1/store/export", nil, rawBody(&raw)); err != nil {
		return nil, err
	}
	return raw, nil
}

// rawBody marks an out target that wants the response bytes verbatim
// instead of a JSON decode.
type rawBody *[]byte

// Models lists the service's model zoo.
func (c *Client) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	var infos []serve.ModelInfo
	if err := c.call(ctx, http.MethodGet, "/v1/models", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Metrics fetches the service's counter snapshot.
func (c *Client) Metrics(ctx context.Context) (*serve.Snapshot, error) {
	var snap serve.Snapshot
	if err := c.call(ctx, http.MethodGet, "/metrics", nil, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// call runs the retry loop around one logical request. body (when
// non-nil) is JSON-encoded once and replayed on every attempt; a 2xx
// answer is decoded into out.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.callRaw(ctx, method, path, payload, out)
}

// callRaw is call with a pre-encoded payload (nil for bodyless
// requests) — the entry point for bodies that are not a single JSON
// value, like the store's JSON Lines corpus.
func (c *Client) callRaw(ctx context.Context, method, path string, payload []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = c.exchange(ctx, method, path, payload, out)
		if lastErr == nil || !fault.IsTransient(lastErr) {
			return lastErr
		}
		if attempt+1 >= c.opt.MaxAttempts {
			break
		}
		delay := c.backoff.Delay(attempt)
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > delay {
			// The server's own hint is a floor, not a suggestion.
			delay = apiErr.RetryAfter
		}
		if deadline, ok := ctx.Deadline(); ok && time.Now().Add(delay).After(deadline) {
			// The retry could not complete in time; fail now with the
			// real cause instead of burning the rest of the deadline.
			return fmt.Errorf("client: deadline precludes retry in %v: %w", delay, lastErr)
		}
		c.log.Info("retrying", "method", method, "path", path,
			"attempt", attempt+1, "delay", delay.String(), "err", lastErr.Error())
		if err := fault.Sleep(ctx, delay); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrAttemptsExhausted, c.opt.MaxAttempts, lastErr)
}

// exchange is one breaker-gated attempt: an open breaker answers
// without touching the wire (and without feeding itself — only real
// exchanges count), otherwise the outcome of the exchange is what the
// breaker learns from.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, out any) error {
	if err := c.brk.allow(); err != nil {
		return err
	}
	err := c.once(ctx, method, path, payload, out)
	c.brk.observe(err)
	return err
}

// maxResponseBytes bounds one response body; a longer body fails the
// call instead of being decoded from a truncated prefix.
const maxResponseBytes = 16 << 20

// once runs a single HTTP exchange. Transport failures come back marked
// transient; non-2xx answers come back as *APIError.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Distributed tracing: when the caller runs under a span, the W3C
	// traceparent header rides along, so a tracing server's request span
	// joins the caller's trace — a cluster coordinator's dispatches to
	// its shards show up as children of the coordinating request.
	if tp := obs.FromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fault.MarkTransient(fmt.Errorf("client: %s %s: %w", method, path, err))
	}
	defer resp.Body.Close()
	if c.opt.OnTrace != nil {
		if traceID := resp.Header.Get("X-Trace-Id"); traceID != "" {
			c.opt.OnTrace(traceID)
		}
	}
	// One byte past the limit tells a body that fits exactly from one
	// that was cut off.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fault.MarkTransient(fmt.Errorf("client: reading response: %w", err))
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return &APIError{
			Status:     resp.StatusCode,
			Message:    errorMessage(raw),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if len(raw) > maxResponseBytes {
		// Terminal: the same request would draw the same oversized body.
		return fmt.Errorf("client: %s %s: response body exceeds the %d-byte limit", method, path, maxResponseBytes)
	}
	if out == nil {
		return nil
	}
	if rb, ok := out.(rawBody); ok {
		*rb = raw
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// errorMessage extracts the uniform JSON error payload, falling back to
// the truncated raw body.
func errorMessage(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	msg := strings.TrimSpace(string(raw))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
}

// parseRetryAfter reads the header's two legal forms: delay seconds or
// an HTTP date. Absent, malformed, or already-elapsed values mean 0.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
