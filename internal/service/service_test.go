package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", 1, 10)
	c.Add("b", 2, 10)
	c.Add("c", 3, 10) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Errorf("b = %v, %v", v, ok)
	}
	// b is now most recent; adding d evicts c.
	c.Add("d", 4, 10)
	if _, ok := c.Get("c"); ok {
		t.Error("c survived eviction despite b's promotion")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if entries, evictions, bytes := c.Stats(); entries != 2 || evictions != 2 || bytes != 20 {
		t.Errorf("Stats = (%d, %d, %d), want (2, 2, 20)", entries, evictions, bytes)
	}
	// Refreshing an entry replaces its size contribution, not adds to it.
	c.Add("d", 5, 30)
	if _, _, bytes := c.Stats(); bytes != 40 {
		t.Errorf("bytes after refresh = %d, want 40", bytes)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len after Flush = %d", c.Len())
	}
	// Flush zeroes occupancy but preserves the eviction counter — it
	// measures capacity pressure, not operator action.
	if entries, evictions, bytes := c.Stats(); entries != 0 || evictions != 2 || bytes != 0 {
		t.Errorf("Stats after Flush = (%d, %d, %d), want (0, 2, 0)", entries, evictions, bytes)
	}
}

func TestFlightGroupDeduplicates(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	joined := make(chan struct{})
	g.onJoin = func() { close(joined) }

	var wg sync.WaitGroup
	var leaderV, followerV any
	var followerLeader bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderV, _, _ = g.Do(context.Background(), "k", func(context.Context) (any, error) {
			<-gate
			return 42, nil
		})
	}()
	// Start the follower only once the leader's flight is registered,
	// and open the gate only once the follower has attached (onJoin) —
	// the two polls make the dedup deterministic, not timing-dependent.
	for {
		g.mu.Lock()
		_, inFlight := g.calls["k"]
		g.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerV, _, followerLeader = g.Do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("follower executed fn")
			return nil, nil
		})
	}()
	<-joined
	close(gate)
	wg.Wait()
	if leaderV != 42 || followerV != 42 {
		t.Errorf("values = %v, %v, want 42, 42", leaderV, followerV)
	}
	if followerLeader {
		t.Error("follower claims leadership")
	}
	select {
	case <-joined:
	default:
		t.Error("onJoin never fired")
	}
}

func TestFlightGroupFollowerHonorsContext(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	defer close(gate)
	go g.Do(context.Background(), "k", func(context.Context) (any, error) { <-gate; return nil, nil })
	waitForFlight(t, g, "k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, leader := g.Do(ctx, "k", func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) || leader {
		t.Errorf("detached follower: err = %v, leader = %v", err, leader)
	}
}

// waitForFlight polls until key has an open flight.
func waitForFlight(t *testing.T, g *flightGroup, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		_, inFlight := g.calls[key]
		g.mu.Unlock()
		if inFlight {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %q never opened", key)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFlightGroupFollowerSurvivesLeaderCancel: a follower with a
// healthy context must get the real result even when the leader's
// context ends mid-flight — the flight detaches from the leader rather
// than poisoning its followers with the leader's context error.
func TestFlightGroupFollowerSurvivesLeaderCancel(t *testing.T) {
	g := newFlightGroup()
	joined := make(chan struct{})
	g.onJoin = func() { close(joined) }
	gate := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(leaderCtx, "k", func(fctx context.Context) (any, error) {
			select {
			case <-gate:
				return 7, nil
			case <-fctx.Done():
				return nil, fctx.Err()
			}
		})
		leaderErr <- err
	}()
	waitForFlight(t, g, "k")

	type res struct {
		v   any
		err error
	}
	followerRes := make(chan res, 1)
	go func() {
		v, err, _ := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("follower executed fn")
			return nil, nil
		})
		followerRes <- res{v, err}
	}()
	<-joined

	// The leader detaches with its own context error...
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached leader: err = %v", err)
	}
	// ...while the flight keeps running and lands for the follower.
	close(gate)
	r := <-followerRes
	if r.err != nil || r.v != 7 {
		t.Errorf("follower after leader cancel: v = %v, err = %v, want 7, nil", r.v, r.err)
	}
}

// TestFlightGroupLastWaiterCancelsFlight: when every waiter has
// detached, the flight context is cancelled so fn stops doing work
// nobody will read.
func TestFlightGroupLastWaiterCancelsFlight(t *testing.T) {
	g := newFlightGroup()
	fnDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go g.Do(ctx, "k", func(fctx context.Context) (any, error) {
		<-fctx.Done()
		fnDone <- fctx.Err()
		return nil, fctx.Err()
	})
	waitForFlight(t, g, "k")
	cancel() // sole waiter leaves → flight context must end
	select {
	case err := <-fnDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("flight context err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never cancelled after last waiter left")
	}
}

func TestAcquireRejectsBeyondQueue(t *testing.T) {
	s := New(Config{Pool: 1, Queue: -1}) // bound: 1 waiter at most
	defer s.Close()
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter is admitted (it backs the single pool slot)...
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterIn := make(chan error, 1)
	go func() {
		r, err := s.acquire(waiterCtx)
		if r != nil {
			r()
		}
		waiterIn <- err
	}()
	for s.met.queued.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// ...and the next arrival is rejected immediately.
	if _, err := s.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow acquire: err = %v, want ErrOverloaded", err)
	}
	if got := s.met.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// A waiter whose context ends gets the context error.
	cancelWaiter()
	if err := <-waiterIn; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: err = %v", err)
	}
	release()
	// With the slot free again, admission recovers.
	r2, err := s.acquire(context.Background())
	if err != nil {
		t.Fatalf("post-recovery acquire: %v", err)
	}
	r2()
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{Pool: 1})
	s.Close()
	if _, err := s.acquire(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("acquire after Close: %v", err)
	}
	if _, _, err := s.Map(context.Background(), &MapRequest{Algorithm: "matmul"}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Map after Close: %v", err)
	}
	if _, err := s.Conflict(context.Background(), &ConflictRequest{}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Conflict after Close: %v", err)
	}
	if _, err := s.Simulate(context.Background(), &SimulateRequest{}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Simulate after Close: %v", err)
	}
	s.Close() // idempotent
}

func TestEffectiveTimeoutClamps(t *testing.T) {
	s := New(Config{DefaultTimeout: time.Second, MaxTimeout: 5 * time.Second})
	defer s.Close()
	if got := s.EffectiveTimeout(0); got != time.Second {
		t.Errorf("unset → %v", got)
	}
	if got := s.EffectiveTimeout(250); got != 250*time.Millisecond {
		t.Errorf("250ms → %v", got)
	}
	if got := s.EffectiveTimeout(60_000); got != 5*time.Second {
		t.Errorf("60s → %v, want the 5s ceiling", got)
	}
}

func TestMapValidation(t *testing.T) {
	s := New(Config{Pool: 1})
	defer s.Close()
	cases := []struct {
		name string
		req  MapRequest
	}{
		{"no algorithm", MapRequest{}},
		{"unknown algorithm", MapRequest{Algorithm: "no-such-algo"}},
		{"dims too large", MapRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 3}},
		{"negative option", MapRequest{Algorithm: "matmul", Sizes: []int64{3}, MaxCost: -1}},
		{"ragged deps", MapRequest{Bounds: []int64{2, 2}, Dependencies: [][]int64{{1}}}},
		{"zero dep", MapRequest{Bounds: []int64{2, 2}, Dependencies: [][]int64{{0, 0}}}},
		{"huge bound", MapRequest{Bounds: []int64{maxBound + 1}, Dependencies: [][]int64{{1}}}},
		// ∏(μ_i+1) = 2^64 wraps an int64 to 0 — the guard must reject
		// by saturation, not by trusting the wrapped product.
		{"overflowing index set", MapRequest{
			Bounds:       []int64{65535, 65535, 65535, 65535},
			Dependencies: [][]int64{{1, 0, 0, 0}},
			Dims:         2,
		}},
	}
	for _, c := range cases {
		var bad *BadRequestError
		if _, _, err := s.Map(context.Background(), &c.req); !errors.As(err, &bad) {
			t.Errorf("%s: err = %v, want BadRequestError", c.name, err)
		}
	}
}

// TestSizeGuardsRejectOverflow: the point-count ceilings of Conflict
// and Simulate must hold even when ∏(μ_i+1) wraps int64 (here 2^64 → 0,
// which a plain comparison against the limit would wave through).
func TestSizeGuardsRejectOverflow(t *testing.T) {
	s := New(Config{Pool: 1})
	defer s.Close()
	overflow := []int64{65535, 65535, 65535, 65535}

	var bad *BadRequestError
	_, err := s.Conflict(context.Background(), &ConflictRequest{
		Bounds: overflow,
		T:      [][]int64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}},
	})
	if !errors.As(err, &bad) {
		t.Errorf("Conflict on overflowing bounds: err = %v, want BadRequestError", err)
	}
	_, err = s.Simulate(context.Background(), &SimulateRequest{
		Bounds:       overflow,
		Dependencies: [][]int64{{1, 0, 0, 0}},
		S:            [][]int64{{1, 0, 0, 0}},
		Pi:           []int64{1, 1, 1, 1},
	})
	if !errors.As(err, &bad) {
		t.Errorf("Simulate on overflowing bounds: err = %v, want BadRequestError", err)
	}
}

// TestRunSearchReportsCacheLanding: a flight that finds its key already
// cached (another flight landed between the caller's cache lookup and
// taking leadership) must report fromCache so Map labels it a hit, not
// a miss.
func TestRunSearchReportsCacheLanding(t *testing.T) {
	s := New(Config{Pool: 1, SearchWorkers: 1})
	defer s.Close()
	req := &MapRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1}

	// Populate the cache with a genuine search…
	if _, status, err := s.Map(context.Background(), req); err != nil || status != CacheMiss {
		t.Fatalf("cold Map: status = %v, err = %v", status, err)
	}
	hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load()

	// …then drive the flight body directly with the search engine
	// booby-trapped: it must come back from the cache without searching.
	s.searchJoint = func(context.Context, *uda.Algorithm, int, *schedule.SpaceOptions) (*schedule.JointResult, error) {
		t.Error("the flight body searched despite a cached result")
		return nil, errors.New("unreachable")
	}
	algo, err := algoFromRequest(req.Algorithm, req.Sizes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := new(problem[MapRequest])
	*p = mapWorkload.newProblem(req, algo, 1, 0)
	if want := fmt.Sprintf("%s|dims=%d|me=%d|ww=%d|mc=%d", p.canon.Key, 1, 0, 0, 0); p.key != want {
		t.Fatalf("key = %q, want %q", p.key, want)
	}
	out, err := mapWorkload.resolve(context.Background(), s, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.fromCache || out.res == nil {
		t.Errorf("outcome = {res: %v, fromCache: %v}, want cached result", out.res, out.fromCache)
	}

	// And end to end, the whole Map path counts that landing as a hit.
	if _, status, err := s.Map(context.Background(), req); err != nil || status != CacheHit {
		t.Errorf("warm Map: status = %v, err = %v, want hit", status, err)
	}
	if h := s.met.cacheHits.Load(); h != hits+1 {
		t.Errorf("cacheHits = %d, want %d", h, hits+1)
	}
	if m := s.met.cacheMisses.Load(); m != misses {
		t.Errorf("cacheMisses = %d, want %d", m, misses)
	}
}

// deepNullSpaceProblem is a dims=1 problem on six axes, μ = (1, 1, 3,
// 3, 3, 2) with dependencies e2 and e3, together with the conflict-free
// mapping S = [1 0 1 7 49 343], Π = [0 1 2 0 0 0] in canonical
// coordinates. Two index points collide iff their difference γ has
// Sγ = Πγ = 0 with every |γ_i| ≤ μ_i: Πγ = γ2 + 2γ3 = 0 forces
// γ2 = γ3 = 0, and then Sγ = γ1 + 7γ4 + 49γ5 + 343γ6 reads γ as
// balanced base-7 digits, which vanish only at γ = 0. Its null space
// has dimension 4; a sweep of its β box would visit 10,761,625 points,
// and the verifier's lattice search visits 9 nodes.
func deepNullSpaceProblem(t *testing.T) (problem[MapRequest], *mapWire) {
	return stubProblem(t, &MapRequest{
		Bounds:       []int64{1, 1, 3, 3, 3, 2},
		Dependencies: [][]int64{{0, 1, 0, 0, 0, 0}, {0, 0, 1, 0, 0, 0}},
		Dims:         1,
	}, []int64{1, 0, 1, 7, 49, 343}, []int64{0, 1, 2, 0, 0, 0})
}

// stubProblem is req with the mapping (s, Π), given in request
// coordinates, as a canonical-coordinate peer result with its total
// time recomputed.
func stubProblem(t *testing.T, req *MapRequest, s, pi []int64) (problem[MapRequest], *mapWire) {
	t.Helper()
	algo, dims, err := validateMapRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	p := mapWorkload.newProblem(req, algo, dims, 0)
	cpi := p.canon.VectorToCanonical(pi)
	tt, err := schedule.TotalTimeChecked(cpi, p.canon.Algo.Set)
	if err != nil {
		t.Fatal(err)
	}
	cs := p.canon.MatrixToCanonical(intmat.FromRows(s))
	wire := &mapWire{S: matrixRows(cs), Pi: cpi, Time: tt, Processors: 859, Engine: "procedure-5.1", ConflictMethod: "exact-factored-fallback"}
	return p, wire
}

// stubMap answers the problem's Map request from a local search stubbed
// to return wire's mapping.
func stubMap(t *testing.T, p *problem[MapRequest], wire *mapWire) (*Service, *MapResponse, CacheStatus, error) {
	t.Helper()
	res, err := resultFromWire(p.canon.Algo, p.dims, wire)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Pool: 1, SearchWorkers: 1})
	t.Cleanup(s.Close)
	s.searchJoint = func(context.Context, *uda.Algorithm, int, *schedule.SpaceOptions) (*schedule.JointResult, error) {
		return res, nil
	}
	resp, status, err := s.Map(context.Background(), p.req)
	return s, resp, status, err
}

// TestMapCertifiesDeepNullSpace: the verifier itself decides the deep
// mapping conflict-free, with no budget, and Map serves and caches it.
func TestMapCertifiesDeepNullSpace(t *testing.T) {
	p, wire := deepNullSpaceProblem(t)
	res, err := resultFromWire(p.canon.Algo, p.dims, wire)
	if err != nil {
		t.Fatal(err)
	}
	if free, wit, err := verify.DecideConflict(context.Background(), res.Mapping.T, p.canon.Algo.Set); err != nil || !free {
		t.Fatalf("DecideConflict = free %v, witness %v, err %v; want conflict-free", free, wit, err)
	}
	s, resp, status, err := stubMap(t, &p, wire)
	if err != nil || status != CacheMiss {
		t.Fatalf("cold Map: status = %v, err = %v", status, err)
	}
	if resp.TotalTime != 8 {
		t.Errorf("total time = %d, want 8", resp.TotalTime)
	}
	if _, status, err := s.Map(context.Background(), p.req); err != nil || status != CacheHit {
		t.Errorf("warm Map: status = %v, err = %v, want hit", status, err)
	}
}

// TestMapRefusesConflictingResult: a local search that returns a
// conflicting mapping fails its request and caches nothing. On matmul
// with S = (1, 1, −1), Π = (1, 1, 1) the null basis vector itself
// collides. The deep problem with S = [1 0 1 2 6 24] has four in-box
// basis-feasible vectors, and only the lattice search finds the
// collision (0, 0, 0, 3, −1, 0).
func TestMapRefusesConflictingResult(t *testing.T) {
	deep := &MapRequest{
		Bounds:       []int64{1, 1, 3, 3, 3, 2},
		Dependencies: [][]int64{{0, 1, 0, 0, 0, 0}, {0, 0, 1, 0, 0, 0}},
		Dims:         1,
	}
	for name, c := range map[string]struct {
		req   *MapRequest
		s, pi []int64
	}{
		"basis witness":  {&MapRequest{Algorithm: "matmul", Sizes: []int64{4}, Dims: 1}, []int64{1, 1, -1}, []int64{1, 1, 1}},
		"lattice search": {deep, []int64{1, 0, 1, 2, 6, 24}, []int64{0, 1, 2, 0, 0, 0}},
	} {
		t.Run(name, func(t *testing.T) {
			p, wire := stubProblem(t, c.req, c.s, c.pi)
			s, _, _, err := stubMap(t, &p, wire)
			var fe *verify.FailureError
			if !errors.As(err, &fe) || fe.Witness != verify.WitnessConflict {
				t.Fatalf("Map err = %v, want a %s failure", err, verify.WitnessConflict)
			}
			if _, ok := s.cache.Get(p.key); ok {
				t.Error("conflicting result entered the cache")
			}
		})
	}
}
