package service

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightGroup deduplicates concurrent work by key: the first caller of
// a key (the leader) opens the flight; callers arriving while it is
// open wait for its outcome instead of repeating the work.
//
// The work itself runs in a dedicated goroutine under a flight context
// that is detached from every caller: a waiter (the leader included)
// whose own context ends detaches and returns its context error, while
// the flight keeps running for the waiters that remain. Only when the
// last waiter detaches is the flight context cancelled — so a follower
// with a healthy deadline is never poisoned by a leader whose deadline
// was short or whose client disconnected.
//
// This is a minimal, context-aware reimplementation of the well-known
// singleflight pattern (the module is dependency-free by design).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
	// onJoin, when set, is called every time a waiter attaches to an
	// existing flight — the service counts deduplicated requests with
	// it, and tests use the count to sequence concurrent callers.
	onJoin func()
}

type flightCall struct {
	done    chan struct{} // closed when val/err are final
	val     any
	err     error
	waiters int                // callers still waiting; guarded by flightGroup.mu
	cancel  context.CancelFunc // cancels the flight context
	mark    flightMark         // progress marks shared with every waiter
}

// flightMark publishes a flight's progress to its waiters. A follower
// that joined mid-flight reads searchStartNs to split its wait into
// "queued behind the pool" versus "the search itself was running":
// without the mark, a follower's whole wait would be booked as search
// time even when the leader spent most of it waiting for a slot.
type flightMark struct {
	// searchStartNs is the wall clock (UnixNano) at which the flight's
	// search actually began — i.e. after the pool slot was acquired and
	// the post-queue cache re-check missed. Zero until then.
	searchStartNs atomic.Int64
}

// markKey carries the flight's mark through the flight context so the
// flight body (workload.resolve) can stamp progress without widening its
// signature.
type markKey struct{}

// markFrom returns the flight mark, or nil outside a flight.
func markFrom(ctx context.Context) *flightMark {
	m, _ := ctx.Value(markKey{}).(*flightMark)
	return m
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// Do executes fn for key, deduplicating concurrent callers. fn runs in
// its own goroutine under a flight context detached from ctx; the
// flight context is cancelled when the last waiter detaches, so fn
// must honor it for abandoned work to stop. leader reports whether
// this caller opened the flight (and so executed fn).
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (v any, err error, leader bool) {
	v, err, leader, _ = g.DoMarked(ctx, key, fn)
	return v, err, leader
}

// DoMarked is Do plus the flight's progress mark, which is shared by
// the leader and every follower of one flight. The service uses it to
// attribute a follower's wait to the correct timing stages.
func (g *flightGroup) DoMarked(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (v any, err error, leader bool, mark *flightMark) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		if g.onJoin != nil {
			g.onJoin()
		}
		v, err, leader = g.wait(ctx, c, false)
		return v, err, leader, &c.mark
	}
	// WithoutCancel keeps ctx's values but drops its deadline and
	// cancellation: the flight outlives any individual caller.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &flightCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
	fctx = context.WithValue(fctx, markKey{}, &c.mark)
	g.calls[key] = c
	g.mu.Unlock()

	go func() {
		v, err := fn(fctx)
		g.mu.Lock()
		c.val, c.err = v, err
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	v, err, leader = g.wait(ctx, c, true)
	return v, err, leader, &c.mark
}

// wait blocks until the flight lands or ctx ends. A waiter that
// detaches decrements the flight's refcount and, as the last one out,
// cancels the flight context so fn stops burning resources on a result
// nobody will read.
func (g *flightGroup) wait(ctx context.Context, c *flightCall, leader bool) (any, error, bool) {
	select {
	case <-c.done:
		return c.val, c.err, leader
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		g.mu.Unlock()
		if last {
			c.cancel()
		}
		return nil, ctx.Err(), leader
	}
}
