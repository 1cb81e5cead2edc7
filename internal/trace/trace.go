// Package trace is a zero-dependency, context-propagated span tracer
// for the search and service layers: a request (or a CLI invocation)
// opens a root span, and every layer below it — joint search, inner Π
// searches, cost levels, verification stages — attaches child spans
// through the context. Completed traces flow to pluggable sinks: the
// ring-buffer Registry behind GET /debug/requests, the per-endpoint
// slowest-N DirSink behind mapserve -trace-dir, and the single-file
// Perfetto export behind mapfind -trace.
//
// The disabled path is a nil check: when no tracer is installed in the
// context, Start returns a nil *Span whose methods are no-ops and
// allocates nothing, so instrumented hot loops cost one context lookup
// per span site (never per candidate — span sites are placed at worker,
// search and level granularity).
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds the spans retained per trace; spans started
// beyond it are dropped (counted, never blocking the caller). A joint
// search over hundreds of space candidates opens a few spans per inner
// search, so the default holds complete traces for every workload in
// this repository while bounding worst-case memory.
const DefaultMaxSpans = 4096

// Config sizes a Tracer.
type Config struct {
	// MaxSpans bounds the spans retained per trace (≤ 0 selects
	// DefaultMaxSpans). The root span always fits.
	MaxSpans int
	// Now substitutes the clock (tests use a fake for deterministic
	// exports); nil selects time.Now.
	Now func() time.Time
}

// Tracer creates traces and fans completed ones out to its sinks. All
// methods are safe for concurrent use. A nil *Tracer is a valid,
// permanently disabled tracer.
type Tracer struct {
	maxSpans int64
	now      func() time.Time

	mu    sync.Mutex
	sinks []func(*Trace)

	started  atomic.Int64 // spans started (incl. the roots)
	dropped  atomic.Int64 // spans dropped by the per-trace cap
	finished atomic.Int64 // root spans ended
}

// New builds a Tracer (zero Config = all defaults).
func New(cfg Config) *Tracer {
	t := &Tracer{maxSpans: int64(cfg.MaxSpans), now: cfg.Now}
	if t.maxSpans <= 0 {
		t.maxSpans = DefaultMaxSpans
	}
	if t.now == nil {
		t.now = time.Now
	}
	return t
}

// AddSink registers fn to run on every completed trace (synchronously,
// after the root span ends, in the ending goroutine).
func (t *Tracer) AddSink(fn func(*Trace)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, fn)
	t.mu.Unlock()
}

// Counters reports the tracer's lifetime totals: spans started, spans
// dropped by the per-trace cap, and traces finished. A nil tracer
// reports zeros.
func (t *Tracer) Counters() (started, dropped, finished int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.started.Load(), t.dropped.Load(), t.finished.Load()
}

// StartRoot opens a new trace rooted at a span named name and returns
// a context carrying the root span. traceID joins an existing
// distributed trace (32 lowercase hex digits, from ParseTraceparent);
// empty or malformed IDs are replaced by a fresh random one. On a nil
// tracer it returns ctx unchanged and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name, traceID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if !validTraceID(traceID) {
		traceID = newTraceID()
	}
	tr := &Trace{tracer: t, id: traceID, name: name, start: t.now()}
	root := &Span{tr: tr, id: 1, name: name, startNs: tr.start.UnixNano()}
	tr.root = root
	tr.nextID.Store(1)
	tr.spans.Store(1)
	t.started.Add(1)
	return withSpan(ctx, root), root
}

// Trace is one tree of spans sharing a trace ID. Reads are safe while
// spans are still being added and ended — sinks may receive a trace
// whose detached descendants (e.g. a singleflight search outliving its
// leader) are still running.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time
	root   *Span

	nextID  atomic.Int64
	spans   atomic.Int64
	dropped atomic.Int64
	endNs   atomic.Int64 // root end, 0 while open
}

// ID returns the 32-hex-digit trace identifier.
func (tr *Trace) ID() string { return tr.id }

// Name returns the root span's name (the request endpoint for service
// traces).
func (tr *Trace) Name() string { return tr.name }

// StartTime returns when the root span opened.
func (tr *Trace) StartTime() time.Time { return tr.start }

// Root returns the root span.
func (tr *Trace) Root() *Span { return tr.root }

// SpanCount returns the number of retained spans.
func (tr *Trace) SpanCount() int64 { return tr.spans.Load() }

// Dropped returns the number of spans dropped by the per-trace cap.
func (tr *Trace) Dropped() int64 { return tr.dropped.Load() }

// Ended reports whether the root span has ended.
func (tr *Trace) Ended() bool { return tr.endNs.Load() != 0 }

// Duration returns the root span's duration (elapsed-so-far while the
// root is still open).
func (tr *Trace) Duration() time.Duration {
	end := tr.endNs.Load()
	if end == 0 {
		return tr.tracer.now().Sub(tr.start)
	}
	return time.Duration(end - tr.start.UnixNano())
}

// Summary returns the compact reference attached to search results.
func (tr *Trace) Summary() *Summary {
	return &Summary{TraceID: tr.id, Spans: tr.spans.Load(), Dropped: tr.dropped.Load()}
}

// Summary is a compact trace reference: enough to find the full trace
// in the /debug/requests inspector or a -trace-dir export without
// carrying the span tree around.
type Summary struct {
	TraceID string `json:"trace_id"`
	Spans   int64  `json:"spans"`
	Dropped int64  `json:"dropped,omitempty"`
}

// Attr is one key/value annotation on a span. Values are either int64
// or string — typed fields instead of an interface so that annotating
// a span never boxes (and the disabled path never allocates).
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Value renders the attribute's value for export.
func (a Attr) Value() any {
	if a.IsStr {
		return a.Str
	}
	return a.Int
}

// Span is one timed operation in a trace. A nil *Span (the disabled
// path) accepts every method as a no-op. A span's attributes and
// children may be written from the goroutine tree it was handed to;
// concurrent child creation and concurrent export are safe.
type Span struct {
	tr      *Trace
	parent  *Span
	id      int64
	name    string
	startNs int64
	endNs   atomic.Int64

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
}

// spanKey carries the active span through contexts.
type spanKey struct{}

// withSpan returns ctx carrying s as the active span.
func withSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the active span, or nil when tracing is off.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SummaryFromContext returns the active trace's summary, or nil when
// tracing is off.
func SummaryFromContext(ctx context.Context) *Summary {
	if s := FromContext(ctx); s != nil {
		return s.tr.Summary()
	}
	return nil
}

// Start opens a child of the context's active span and returns a
// context carrying it. When the context carries no span (tracing off)
// or the per-trace span cap is reached, it returns ctx unchanged and a
// nil span — one context lookup, zero allocations.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.newChild(name)
	if child == nil {
		return ctx, nil
	}
	return withSpan(ctx, child), child
}

// Child opens a child of s named name — what Start does on a context
// carrying s, without the context lookup — for a loop that opens many
// spans under one parent it resolved once. It returns nil on a nil
// span (tracing off) and at the per-trace span cap.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newChild(name)
}

// newChild allocates and links a child span, honoring the per-trace
// cap.
func (s *Span) newChild(name string) *Span {
	tr := s.tr
	if n := tr.spans.Add(1); n > tr.tracer.maxSpans {
		tr.spans.Add(-1)
		tr.dropped.Add(1)
		tr.tracer.dropped.Add(1)
		return nil
	}
	tr.tracer.started.Add(1)
	child := &Span{
		tr:      tr,
		parent:  s,
		id:      tr.nextID.Add(1),
		name:    name,
		startNs: tr.tracer.now().UnixNano(),
	}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// Children returns a snapshot of the span's child spans in creation
// order (nil on a nil span). Safe to call while children are still
// being added.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span{}, s.children...)
}

// Attrs returns a snapshot of the span's attributes in insertion order
// (nil on a nil span).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr{}, s.attrs...)
}

// Trace returns the span's trace (nil on a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// TraceID returns the owning trace's ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// IDHex returns the span's ID as the 16-hex-digit form traceparent
// uses ("" on a nil span). IDs are sequential per trace starting at 1,
// so they are never the all-zero invalid value.
func (s *Span) IDHex() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(s.id))
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	s.mu.Unlock()
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
	s.mu.Unlock()
}

// End closes the span (idempotent; later Ends are ignored). Ending the
// root span finishes the trace and runs the tracer's sinks
// synchronously in the calling goroutine.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.tracer.now().UnixNano()
	if !s.endNs.CompareAndSwap(0, now) {
		return
	}
	if s.parent != nil {
		return
	}
	tr := s.tr
	tr.endNs.Store(now)
	t := tr.tracer
	t.finished.Add(1)
	t.mu.Lock()
	sinks := append([]func(*Trace){}, t.sinks...)
	t.mu.Unlock()
	for _, fn := range sinks {
		fn(tr)
	}
}

// Ended reports whether the span has ended.
func (s *Span) Ended() bool {
	if s == nil {
		return true
	}
	return s.endNs.Load() != 0
}

// Duration returns the span's duration (elapsed-so-far while open; 0
// on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	end := s.endNs.Load()
	if end == 0 {
		end = s.tr.tracer.now().UnixNano()
	}
	return time.Duration(end - s.startNs)
}

// snapshot copies the span's mutable state for export. end is 0 for a
// still-open span; the exporter substitutes the export instant.
type snapshot struct {
	id       int64
	name     string
	startNs  int64
	endNs    int64
	attrs    []Attr
	children []*snapshot
}

// snap recursively snapshots the subtree under its locks.
func (s *Span) snap() *snapshot {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	out := &snapshot{id: s.id, name: s.name, startNs: s.startNs, endNs: s.endNs.Load(), attrs: attrs}
	out.children = make([]*snapshot, len(kids))
	for i, k := range kids {
		out.children[i] = k.snap()
	}
	return out
}

// newTraceID returns 32 random lowercase hex digits (the W3C trace-id
// shape). On entropy failure it degrades to a counter — traces stay
// distinguishable, requests never fail on observability.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%032x", uint64(fallbackTraceID.Add(1)))
	}
	return hex.EncodeToString(b[:])
}

var fallbackTraceID atomic.Int64
