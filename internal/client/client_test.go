package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/serve"
)

func TestHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"saturated"}`))
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Models(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("client retried after %v; Retry-After: 1 demanded >= 1s", elapsed)
	}
}

func Test4xxIsTerminalWithoutRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"unknown arch \"tpu\""}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, Options{MaxAttempts: 5, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Simulate(context.Background(), serve.SimulateRequest{Arch: "tpu"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if !strings.Contains(apiErr.Message, "tpu") {
		t.Fatalf("error lost the server's message: %q", apiErr.Message)
	}
	if fault.IsTransient(err) {
		t.Fatal("4xx classified transient")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a terminal 400, want 1", got)
	}
}

// TestOversizedResponseNamesLimit pins the response-size bound: a body
// one byte over the limit fails the call with an error naming the limit
// (not a decode error from a silently truncated prefix), and is not
// retried.
func TestOversizedResponseNamesLimit(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// A syntactically valid JSON string, so only the size is wrong.
		body := make([]byte, maxResponseBytes+1)
		for i := range body {
			body[i] = 'x'
		}
		body[0], body[len(body)-1] = '"', '"'
		w.Write(body)
	}))
	defer ts.Close()

	c, err := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var out string
	err = c.call(context.Background(), http.MethodGet, "/big", nil, &out)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxResponseBytes)) {
		t.Fatalf("err = %v, want one naming the %d-byte limit", err, maxResponseBytes)
	}
	if fault.IsTransient(err) {
		t.Fatal("oversized body classified transient")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for an oversized body, want 1", got)
	}
}

func TestDeadlinePrecludesLongRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"saturated"}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, Options{MaxAttempts: 4, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Models(ctx)
	if err == nil {
		t.Fatal("saturated server with 5s Retry-After inside a 300ms deadline must fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("client burned %v of a 300ms deadline waiting on a hopeless retry", elapsed)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("deadline-cut error %v lost the underlying 503", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (the retry was precluded)", got)
	}
}

func TestAttemptsExhaustedWrapsLastError(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom"}`))
	}))
	defer ts.Close()

	c, err := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Models(context.Background())
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("err = %v, want ErrAttemptsExhausted", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("exhaustion error %v lost the last 500", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want MaxAttempts=3", got)
	}
}

func TestTransportErrorsRetry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listening: every attempt is a transport error

	c, err := New(ts.URL, Options{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Models(context.Background())
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("dead server err = %v, want exhaustion after retries", err)
	}
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	if _, err := New("127.0.0.1:8080", Options{}); err == nil {
		t.Fatal("scheme-less base URL accepted")
	}
	if _, err := New("ftp://example.com", Options{}); err == nil {
		t.Fatal("non-http scheme accepted")
	}
}

// TestClientAgainstSaturatedServer is the integration acceptance run: a
// real serve.Server with one execution slot and no queue, held busy by
// injected exec latency, answers the client's first attempt with 503 +
// Retry-After; the client honors the hint, backs off, and succeeds once
// the slot frees — while a malformed request stays terminal throughout.
func TestClientAgainstSaturatedServer(t *testing.T) {
	inj := fault.New(77)
	inj.Add(fault.Rule{Site: serve.ChaosSiteExec, Kind: fault.KindLatency, Delay: 800 * time.Millisecond})
	s := serve.New(serve.Options{
		MaxInflight: 1,
		QueueDepth:  -1, // no queue: saturation answers 503 immediately
		RetryAfter:  time.Second,
		Inject:      inj,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, err := New(ts.URL, Options{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Occupy the single slot, then wait until the server confirms it.
	occupied := make(chan error, 1)
	go func() {
		_, err := c.Simulate(ctx, serve.SimulateRequest{Arch: "inca", Model: "LeNet5", Phase: "inference"})
		occupied <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := c.Metrics(ctx)
		if err == nil && snap.Inflight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("occupier never took the execution slot")
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	rep, err := c.Simulate(ctx, serve.SimulateRequest{Arch: "inca", Model: "LeNet5", Phase: "inference"})
	if err != nil {
		t.Fatalf("client against saturated server: %v", err)
	}
	elapsed := time.Since(start)
	if rep.Network != "LeNet5" || rep.Total.Latency <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	// The first attempt met a saturated server (Retry-After: 1); honoring
	// the hint means the success took at least that long.
	if elapsed < 900*time.Millisecond {
		t.Fatalf("success after %v; the 1s Retry-After floor was not honored", elapsed)
	}
	if err := <-occupied; err != nil {
		t.Fatalf("occupier request failed: %v", err)
	}

	// Terminal errors stay terminal even while the server is chaotic.
	if _, err := c.Simulate(ctx, serve.SimulateRequest{Arch: "tpu", Model: "LeNet5", Phase: "inference"}); err != nil {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("bad arch err = %v, want 400", err)
		}
	} else {
		t.Fatal("unknown arch succeeded")
	}
}
