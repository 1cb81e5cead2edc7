package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic test clock advancing a fixed step per
// call, so span timings and exports are byte-stable.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{
		now:  time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		step: step,
	}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func TestStartRootAndChildren(t *testing.T) {
	tr := New(Config{Now: newFakeClock(time.Millisecond).Now})
	ctx, root := tr.StartRoot(context.Background(), "request", "")
	if root == nil {
		t.Fatal("StartRoot returned nil span on a live tracer")
	}
	if got := root.TraceID(); len(got) != 32 {
		t.Fatalf("trace id %q is not 32 hex digits", got)
	}
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}

	cctx, child := Start(ctx, "search")
	if child == nil {
		t.Fatal("Start returned nil child under a live root")
	}
	if FromContext(cctx) != child {
		t.Fatal("child context does not carry the child span")
	}
	child.SetInt("candidates", 42)
	child.SetStr("engine", "joint-6.2")
	child.End()
	if !child.Ended() {
		t.Fatal("child not ended after End")
	}
	if child.Duration() <= 0 {
		t.Fatalf("child duration %v not positive under advancing clock", child.Duration())
	}

	root.End()
	trace := root.Trace()
	if !trace.Ended() {
		t.Fatal("trace not ended after root End")
	}
	if got := trace.SpanCount(); got != 2 {
		t.Fatalf("SpanCount = %d, want 2", got)
	}
	sum := trace.Summary()
	if sum.TraceID != trace.ID() || sum.Spans != 2 || sum.Dropped != 0 {
		t.Fatalf("bad summary %+v", sum)
	}
}

func TestStartRootJoinsSuppliedTraceID(t *testing.T) {
	tr := New(Config{})
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	_, root := tr.StartRoot(context.Background(), "r", id)
	if root.TraceID() != id {
		t.Fatalf("TraceID = %q, want joined id %q", root.TraceID(), id)
	}
	// Malformed ids are replaced, not propagated.
	_, root2 := tr.StartRoot(context.Background(), "r", "not-hex")
	if root2.TraceID() == "not-hex" || len(root2.TraceID()) != 32 {
		t.Fatalf("malformed supplied id leaked through: %q", root2.TraceID())
	}
}

func TestDisabledPathIsNilSafe(t *testing.T) {
	ctx := context.Background()
	// No tracer in context: Start must hand back ctx unchanged.
	got, s := Start(ctx, "anything")
	if s != nil || got != ctx {
		t.Fatal("Start on an untraced context must return (ctx, nil)")
	}
	// Every method on the nil span is a no-op.
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	s.End()
	if !s.Ended() || s.Duration() != 0 || s.TraceID() != "" || s.IDHex() != "" || s.Trace() != nil {
		t.Fatal("nil span accessors returned non-zero values")
	}
	if SummaryFromContext(ctx) != nil {
		t.Fatal("SummaryFromContext on untraced context must be nil")
	}
	// Nil tracer: StartRoot is a no-op too.
	var nilT *Tracer
	got, s = nilT.StartRoot(ctx, "r", "")
	if s != nil || got != ctx {
		t.Fatal("nil tracer StartRoot must return (ctx, nil)")
	}
	nilT.AddSink(func(*Trace) {})
	if a, b, c := nilT.Counters(); a != 0 || b != 0 || c != 0 {
		t.Fatal("nil tracer counters must be zero")
	}
}

// TestDisabledPathAllocations locks the zero-allocation guarantee for
// the disabled tracer: an instrumented hot loop with tracing off must
// not allocate at the span sites.
func TestDisabledPathAllocations(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, s := Start(ctx, "joint-search")
		s.SetInt("candidates", 7)
		s.SetStr("engine", "joint-6.2")
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

// TestConcurrentSpans exercises parallel child creation, annotation and
// end under the race detector — the shape of a joint search fan-out.
func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "joint", "")
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx, ws := Start(ctx, "worker")
			ws.SetInt("worker", int64(w))
			for i := 0; i < perWorker; i++ {
				_, s := Start(wctx, "pi-search")
				s.SetInt("candidate", int64(i))
				s.End()
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	root.End()
	want := int64(1 + workers + workers*perWorker)
	if got := root.Trace().SpanCount(); got != want {
		t.Fatalf("SpanCount = %d, want %d", got, want)
	}
	started, dropped, finished := tr.Counters()
	if started != want || dropped != 0 || finished != 1 {
		t.Fatalf("Counters = (%d,%d,%d), want (%d,0,1)", started, dropped, finished, want)
	}
}

// TestChildMatchesStart: Span.Child links the span Start would under a
// context carrying its parent, honours the span cap, and is a
// non-allocating no-op on the nil span of the disabled path.
func TestChildMatchesStart(t *testing.T) {
	var nilSpan *Span
	if allocs := testing.AllocsPerRun(1000, func() {
		c := nilSpan.Child("level")
		c.SetInt("cost", 1)
		c.End()
	}); allocs != 0 {
		t.Fatalf("nil Child allocates %.1f per op, want 0", allocs)
	}
	tr := New(Config{MaxSpans: 3})
	ctx, root := tr.StartRoot(context.Background(), "r", "")
	_, started := Start(ctx, "level")
	child := root.Child("level")
	if child == nil || root.Child("level") != nil {
		t.Fatal("Child must open one span, then stop at MaxSpans=3")
	}
	child.End()
	started.End()
	root.End()
	kids := root.Children()
	if len(kids) != 2 || kids[0] != started || kids[1] != child || child.Name() != "level" {
		t.Fatalf("children %v, want the Start span then the Child span", kids)
	}
	if got := root.Trace().Dropped(); got != 1 {
		t.Fatalf("Trace.Dropped = %d, want 1", got)
	}
}

func TestMaxSpansDropsAndCounts(t *testing.T) {
	tr := New(Config{MaxSpans: 3})
	ctx, root := tr.StartRoot(context.Background(), "r", "")
	var kept, droppedSpans int
	for i := 0; i < 10; i++ {
		c, s := Start(ctx, "child")
		if s == nil {
			droppedSpans++
			if c != ctx {
				t.Fatal("dropped Start must return ctx unchanged")
			}
		} else {
			kept++
			s.End()
		}
	}
	root.End()
	if kept != 2 || droppedSpans != 8 {
		t.Fatalf("kept %d dropped %d, want 2 and 8 under MaxSpans=3", kept, droppedSpans)
	}
	if got := root.Trace().Dropped(); got != 8 {
		t.Fatalf("Trace.Dropped = %d, want 8", got)
	}
	if _, d, _ := tr.Counters(); d != 8 {
		t.Fatalf("tracer dropped counter = %d, want 8", d)
	}
}

func TestEndIsIdempotentAndSinksFireOnce(t *testing.T) {
	tr := New(Config{Now: newFakeClock(time.Millisecond).Now})
	var fired int
	var sunk *Trace
	tr.AddSink(func(trc *Trace) { fired++; sunk = trc })
	_, root := tr.StartRoot(context.Background(), "r", "")
	root.End()
	first := root.Duration()
	root.End()
	root.End()
	if fired != 1 {
		t.Fatalf("sink fired %d times, want 1", fired)
	}
	if sunk != root.Trace() {
		t.Fatal("sink received a different trace")
	}
	if root.Duration() != first {
		t.Fatal("second End changed the recorded duration")
	}
}

func TestSpanIDHexIsTraceparentShaped(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "r", "")
	_, child := Start(ctx, "c")
	for _, s := range []*Span{root, child} {
		id := s.IDHex()
		if len(id) != 16 || !isLowerHex(id) || allZero(id) {
			t.Fatalf("IDHex %q is not a valid traceparent span id", id)
		}
	}
	if root.IDHex() == child.IDHex() {
		t.Fatal("root and child share a span id")
	}
	hdr := Traceparent(root.TraceID(), root.IDHex())
	if _, _, ok := ParseTraceparent(hdr); !ok {
		t.Fatalf("emitted traceparent %q does not round-trip", hdr)
	}
}

func TestOpenSpanDurationAdvances(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := New(Config{Now: clock.Now})
	_, root := tr.StartRoot(context.Background(), "r", "")
	d1 := root.Duration()
	d2 := root.Duration()
	if d2 <= d1 {
		t.Fatalf("open span duration did not advance: %v then %v", d1, d2)
	}
	if strings.Contains(root.Name(), " ") {
		t.Fatalf("unexpected span name %q", root.Name())
	}
}
