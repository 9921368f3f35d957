// Package obs is the stdlib-only tracing and runtime-telemetry
// subsystem behind the repo's observability layer. A Tracer produces
// nested spans — one per HTTP request, sweep cell, retry attempt, and
// simulated layer — with an injectable monotonic clock so tests pin
// exact durations, a lock-cheap per-span attribute/event API,
// and pluggable sinks: a bounded in-memory ring (queryable by trace ID,
// the substrate of GET /v1/trace/{id}) and a JSONL writer for offline
// analysis.
//
// Integration points follow the same discipline as internal/fault's
// site names: a nil *Tracer and a nil *Span are both inert, every
// method on them is a cheap no-op, and continuing a trace requires only
// a context — obs.StartSpan(ctx, ...) starts a child of whatever span
// the context carries and does nothing when it carries none. Span names
// are slash-separated layer/object paths ("sweep/cell", "sim/layer"),
// matching the fault-injection site convention so a chaos run's
// injected sites and its trace's span names line up.
//
// Trace identity is W3C-trace-context shaped: 16-byte trace IDs, 8-byte
// span IDs, and ParseTraceparent/FormatTraceparent for the
// "00-<trace>-<span>-01" header form the HTTP layer propagates.
package obs

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Clock is the tracer's time source. The default is time.Now (whose
// readings carry Go's monotonic clock, so span durations are immune to
// wall-clock steps); tests inject a fake to pin exact durations.
type Clock func() time.Time

// Attr is one key/value annotation on a span or event. Values are
// restricted by the constructors to JSON-stable primitives.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// String returns a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer-valued attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: int64(value)} }

// Int64 returns an integer-valued attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Float64 returns a float-valued attribute.
func Float64(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool returns a boolean-valued attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// Event is one timestamped occurrence inside a span.
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is the immutable record of a completed span — what sinks
// receive and the ring stores. Times come from the tracer's clock.
type SpanData struct {
	TraceID   string    `json:"trace_id"`
	SpanID    string    `json:"span_id"`
	ParentID  string    `json:"parent_id,omitempty"`
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	DurationS float64   `json:"duration_s"`
	Attrs     []Attr    `json:"attrs,omitempty"`
	Events    []Event   `json:"events,omitempty"`
}

// Attr returns the value of the named attribute and whether it is set
// (the last write wins, matching SetAttr semantics).
func (d SpanData) Attr(key string) (any, bool) {
	for i := len(d.Attrs) - 1; i >= 0; i-- {
		if d.Attrs[i].Key == key {
			return d.Attrs[i].Value, true
		}
	}
	return nil, false
}

// Duration returns the span's end-start difference.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Sink receives completed spans. Implementations must be safe for
// concurrent use; Emit is called once per span, at End.
type Sink interface {
	Emit(SpanData)
}

// Tracer mints spans. Construct with NewTracer; the nil *Tracer is
// inert (Start returns a nil span that swallows every call), so
// integration points pay nothing when tracing is off.
type Tracer struct {
	clock Clock
	sinks []Sink
	ring  *Ring

	idmu sync.Mutex
	rng  *rand.Rand
}

// TracerOption configures NewTracer.
type TracerOption func(*Tracer)

// WithClock injects the tracer's time source (tests pin durations with
// a fake). nil restores the default time.Now.
func WithClock(c Clock) TracerOption {
	return func(t *Tracer) { t.clock = c }
}

// WithSink adds a sink receiving every completed span.
func WithSink(s Sink) TracerOption {
	return func(t *Tracer) {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
}

// WithRing attaches a bounded in-memory ring of the most recent
// capacity completed spans, queryable via Tracer.Ring (the substrate of
// the HTTP service's GET /v1/trace/{id}).
func WithRing(capacity int) TracerOption {
	return func(t *Tracer) {
		t.ring = NewRing(capacity)
		t.sinks = append(t.sinks, t.ring)
	}
}

// WithIDSeed makes trace/span ID generation deterministic from seed —
// for tests and reproducible offline analysis. Without it IDs derive
// from the process clock at construction.
func WithIDSeed(seed int64) TracerOption {
	return func(t *Tracer) { t.rng = rand.New(rand.NewSource(seed)) }
}

// NewTracer builds a tracer. With no options it keeps spans in no sink
// at all — useful only for propagating IDs; pass WithRing and/or
// NewJSONLWriter via WithSink to retain spans.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{clock: time.Now}
	for _, opt := range opts {
		opt(t)
	}
	if t.clock == nil {
		t.clock = time.Now
	}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return t
}

// Ring returns the tracer's in-memory span ring, nil unless WithRing
// was configured (or the tracer is nil).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// Now reads the tracer's clock; the zero time for a nil tracer.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock()
}

// newIDs draws fresh identifiers from the seeded stream. A zero ID is
// invalid per W3C trace context, so zeros are redrawn.
func (t *Tracer) newTraceID() string {
	t.idmu.Lock()
	defer t.idmu.Unlock()
	for {
		hi, lo := t.rng.Uint64(), t.rng.Uint64()
		if hi|lo != 0 {
			return hex16(hi) + hex16(lo)
		}
	}
}

func (t *Tracer) newSpanID() string {
	t.idmu.Lock()
	defer t.idmu.Unlock()
	for {
		if v := t.rng.Uint64(); v != 0 {
			return hex16(v)
		}
	}
}

// hex16 renders v as 16 lowercase hex digits without fmt (the ID path
// is hot enough under load tests to care).
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Span is one node of a trace. All methods are safe on a nil receiver
// and safe for concurrent use; a span is delivered to sinks exactly
// once, at its first End.
type Span struct {
	tracer *Tracer

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Start begins a span. The parent is taken from ctx: a live span put
// there by an earlier Start wins, else a remote parent installed by
// WithRemoteParent (the HTTP traceparent path), else the span is a new
// trace's root. The returned context carries the new span for
// StartSpan / FromContext. A nil tracer returns ctx unchanged and a nil
// (inert) span.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t}
	s.data.Name = name
	s.data.Start = t.clock()
	s.data.Attrs = attrs
	s.data.SpanID = t.newSpanID()
	switch {
	case FromContext(ctx) != nil:
		p := FromContext(ctx)
		s.data.TraceID = p.TraceID()
		s.data.ParentID = p.SpanID()
	default:
		if tid, sid, ok := remoteParent(ctx); ok {
			s.data.TraceID, s.data.ParentID = tid, sid
		} else {
			s.data.TraceID = t.newTraceID()
		}
	}
	return ContextWithSpan(ctx, s), s
}

// StartSpan continues the trace carried by ctx: it starts a child of
// the context's span on that span's tracer. When ctx carries no span it
// returns ctx and a nil (inert) span — so library layers can
// instrument unconditionally and pay one context lookup when tracing
// is off. Attributes passed here are boxed and allocated even then:
// hot paths start the span bare and call SetAttr under span != nil.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.Start(ctx, name, attrs...)
}

// TraceID returns the span's trace identifier ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's identifier ("" for nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// StartTime returns the span's start reading from the tracer clock.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.data.Start
}

// Traceparent renders the span's W3C trace-context header value.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.data.TraceID, s.data.SpanID)
}

// SetAttr appends attributes. Later writes of a key win in
// SpanData.Attr. Calls after End are dropped.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Attrs = append(s.data.Attrs, attrs...)
	}
	s.mu.Unlock()
}

// Event records a timestamped occurrence inside the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	now := s.tracer.clock()
	s.mu.Lock()
	if !s.ended {
		s.data.Events = append(s.data.Events, Event{Time: now, Name: name, Attrs: attrs})
	}
	s.mu.Unlock()
}

// End finalizes the span at the tracer clock's current reading and
// delivers it to every sink. Only the first End counts.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.clock()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = now
	s.data.DurationS = now.Sub(s.data.Start).Seconds()
	sd := s.data
	s.mu.Unlock()
	for _, sink := range s.tracer.sinks {
		sink.Emit(sd)
	}
}

// EndWith records err (when non-nil) as the span's "error" attribute
// and ends it — the one-line defer for fallible operations.
func (s *Span) EndWith(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr(String("error", err.Error()))
	}
	s.End()
}

// --- context plumbing ---

type spanKey struct{}
type remoteKey struct{}

type remote struct{ traceID, spanID string }

// ContextWithSpan returns ctx carrying s for FromContext/StartSpan.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the span carried by ctx, nil when there is none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextTracer returns the tracer behind the span carried by ctx, nil
// when the context carries no span.
func ContextTracer(ctx context.Context) *Tracer {
	if s := FromContext(ctx); s != nil {
		return s.tracer
	}
	return nil
}

// WithRemoteParent installs an upstream trace identity (from a
// traceparent header) that the next Tracer.Start without a local parent
// will continue.
func WithRemoteParent(ctx context.Context, traceID, spanID string) context.Context {
	return context.WithValue(ctx, remoteKey{}, remote{traceID: traceID, spanID: spanID})
}

func remoteParent(ctx context.Context) (traceID, spanID string, ok bool) {
	r, ok := ctx.Value(remoteKey{}).(remote)
	return r.traceID, r.spanID, ok
}

// --- W3C traceparent ---

// FormatTraceparent renders the version-00 traceparent header:
// 00-<32 hex trace id>-<16 hex span id>-01 (sampled).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent reads a version-00 traceparent header, accepting
// exactly the shape FormatTraceparent writes (any 2-digit flags).
// Malformed or all-zero identifiers report ok=false.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" ||
		len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) || !isHex(parts[3]) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
