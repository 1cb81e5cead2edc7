package schedule

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/trace"
	"lodim/internal/uda"
)

// FindOptimal implements Procedure 5.1: schedule vectors Π are
// enumerated in strictly increasing order of the objective
// f = Σ|π_i|·μ_i (by Theorem 2.1 total time is monotone in the |π_i|,
// so the first candidate passing every test is time-optimal). Each
// candidate is tested against:
//
//  1. ΠD > 0,
//  2. rank(T) = k,
//  3. conflict-freeness (conflict.Decide — exact at every k), and
//  4. when a machine is configured, realizability SD = PK within slack.
//
// Within one objective level candidates are visited in lexicographic
// order, making the result deterministic.
func FindOptimal(algo *uda.Algorithm, s *intmat.Matrix, opts *Options) (*Result, error) {
	return FindOptimalContext(context.Background(), algo, s, opts)
}

// FindOptimalContext is FindOptimal with cancellation: the enumeration
// checks ctx between objective levels and every few hundred candidates,
// so a cancelled or expired context stops the search promptly. When the
// context ends before a schedule is found the context's error is
// returned (not ErrNoSchedule — an interrupted search proves nothing
// about feasibility).
func FindOptimalContext(ctx context.Context, algo *uda.Algorithm, s *intmat.Matrix, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	if s.Cols() != algo.Dim() {
		return nil, fmt.Errorf("schedule: S has %d columns, algorithm dimension is %d", s.Cols(), algo.Dim())
	}
	// The factored analyzer caches the Π-independent null(S) basis so
	// each candidate costs a handful of gcd steps instead of a full
	// Hermite reduction; it is exact (theorem certificates with an
	// enumeration fallback).
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		return nil, err
	}
	return findOptimalWith(ctx, algo, s, opts, analyzer, nil)
}

// ctxCheckMask paces the in-level cancellation checks: a walk step or
// a rejected candidate costs nanoseconds, so a level walk polls the
// context once every 256 steps, and the level-synchronous evaluation
// once every 256 candidates (plus once per level).
const ctxCheckMask = 255

// innerEnv is what a joint or Pareto call lends each of its inner Π
// searches: the call's shared counters and the calling worker's state,
// which that worker keeps for the whole call.
type innerEnv struct {
	stats *statsCollector
	ws    *workerState // nil: the search takes its own from the pools
}

// findOptimalWith is the enumeration engine behind FindOptimal with a
// caller-supplied factored analyzer. The joint optimizer
// (spaceopt.go) builds one analyzer per space-mapping candidate and
// shares it between this search and the array-metric evaluation, so the
// Π-independent Hermite work happens exactly once per S.
//
// env is nil for a top-level search, which owns a fresh collector,
// attaches its snapshot to the winning Result and formats ErrNoSchedule
// with the algorithm, S and the cost bound. An inner search (non-nil
// env) adds its level and candidate counts to env.stats once, at its
// end, and reports a bare ErrNoSchedule: its caller only tests for the
// sentinel. Each level is walked by a piWalker, which visits only the Π
// passing ΠD ≥ 1 and counts the rest: a level adds its winner's
// ordinal + 1, or its raw size when no Π wins — at any worker count.
// An int64 overflow anywhere in the search is returned as an error.
func findOptimalWith(ctx context.Context, algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, env *innerEnv) (_ *Result, err error) {
	ownStats := env == nil
	var stats *statsCollector
	var ws *workerState
	if ownStats {
		stats = &statsCollector{}
	} else {
		stats, ws = env.stats, env.ws
	}
	// One span per Π search: a top-level Procedure 5.1 run gets its own,
	// and each joint-search inner search becomes a child of its worker
	// span. Candidate counts land as attributes at the end — per-span
	// totals, never per-candidate spans.
	ctx, span := trace.Start(ctx, "pi-search")
	candidates := 0
	levels := int64(0)
	defer func() {
		span.SetInt("candidates", int64(candidates))
		span.SetInt("levels", levels)
		if err != nil {
			span.SetStr("error", err.Error())
		}
		span.End()
	}()
	defer intmat.Guard(&err)
	startAt := time.Now()
	maxCost, minCost := maxCostOr(opts.MaxCost, algo.Set), max(opts.MinCost, 1)
	if opts.MinimizeBuffers && opts.Machine == nil {
		return nil, fmt.Errorf("schedule: MinimizeBuffers requires a Machine")
	}
	// One conflict scratch per evaluation worker, held across cost
	// levels: the scratch's decision cache is what makes neighbouring
	// candidates incremental (adjacent levels re-probe the same h
	// lines), so it must survive level boundaries. A sequential inner
	// search uses the worker state its caller lends; otherwise the
	// states come from the pools, and their counters drain into stats
	// before the snapshot and again — idempotently — when they are
	// released.
	var own *workerStates
	if ws == nil || opts.Workers > 1 {
		own = newWorkerStates(algo, opts.Workers, max(opts.Workers, 1))
		defer own.release(stats)
		ws = own.get(0)
	}
	wk := ws.walk
	cctx := newCandCtx(algo, s, opts, analyzer, wk.depCols)
	levelSync := opts.Workers > 1 || opts.MinimizeBuffers
	done := ctx.Done()
	var lv *levelPassers // the level-synchronous path's passers, reused across levels
	var found *Result
	for cost := minCost; cost <= maxCost && found == nil; cost++ {
		if isDone(done) {
			return nil, ctx.Err()
		}
		levels++
		// Cost-level spans only for a top-level search: a joint run's
		// hundreds of inner searches would multiply them into noise
		// (and through the per-trace span cap), while their level
		// counts are already on the pi-search span.
		var levelSpan *trace.Span
		if ownStats {
			_, levelSpan = trace.Start(ctx, "level")
			levelSpan.SetInt("cost", cost)
		}
		var seen int64
		if levelSync {
			// Level-synchronous evaluation: test the level's ΠD ≥ 1
			// passers (in parallel when configured), then apply the
			// deterministic selection rule over all of them.
			if lv == nil {
				lv = &levelPassers{n: len(wk.pi)}
			}
			lv.pis, lv.ords = lv.pis[:0], lv.ords[:0]
			seen, err = wk.walk(ctx, cost, func(pi intmat.Vector, ord int64) bool {
				lv.pis = append(lv.pis, pi...)
				lv.ords = append(lv.ords, ord)
				return true
			})
			if err == nil {
				results := evaluateLevel(ctx, lv, cctx, ws.sc, own)
				// A context that ended mid-level may have left earlier
				// (potentially winning) candidates unevaluated, so the
				// level's verdict cannot be trusted — report the
				// interruption instead.
				if isDone(done) {
					err = ctx.Err()
				} else if i := pickWinner(results, opts); i >= 0 {
					found = results[i]
					if !opts.MinimizeBuffers {
						seen = lv.ords[i] + 1
					}
				}
			}
		} else {
			// Sequential fast path: the first passer in enumeration
			// order wins, so evaluation can stop early.
			seen, err = wk.walk(ctx, cost, func(pi intmat.Vector, _ int64) bool {
				r, ok := cctx.tryValid(pi, ws.sc)
				if ok {
					found = r
				}
				return !ok
			})
		}
		candidates += int(seen)
		levelSpan.SetInt("candidates", seen)
		levelSpan.End()
		if err != nil {
			return nil, err
		}
	}
	stats.costLevels.Add(levels)
	stats.scheduleCandidates.Add(int64(candidates))
	if ownStats {
		own.release(stats)
	}
	// An arithmetic overflow recorded by a worker invalidates the whole
	// run — the enumeration may have mis-ranked candidates — and takes
	// precedence over both a winner and ErrNoSchedule.
	if err := cctx.takeErr(); err != nil {
		return nil, err
	}
	if found == nil {
		if !ownStats {
			return nil, ErrNoSchedule
		}
		return nil, fmt.Errorf("%w: algorithm %q, S =\n%v, cost ≤ %d", ErrNoSchedule, algo.Name, s, maxCost)
	}
	found.Candidates = candidates
	found.Method = "procedure-5.1"
	if opts.SelfCheck {
		if err := runSelfCheck(found.Mapping); err != nil {
			return nil, err
		}
	}
	if ownStats {
		elapsed := time.Since(startAt)
		found.Stats = stats.snapshot("procedure-5.1", max(opts.Workers, 1), 0, elapsed, elapsed)
		found.Stats.annotateSpan(span)
		found.Trace = trace.SummaryFromContext(ctx)
	}
	return found, nil
}

// levelPassers is one level's ΠD ≥ 1 passers, gathered for the
// level-synchronous path: the Π back to back, n entries each, and each
// one's ordinal among all Π of the level.
type levelPassers struct {
	n    int
	pis  []int64
	ords []int64
}

// pi returns entry i as a read-only view into the level's storage.
func (lv *levelPassers) pi(i int) intmat.Vector {
	return intmat.Vector(lv.pis[i*lv.n : (i+1)*lv.n : (i+1)*lv.n])
}

// evaluateLevel runs tests 2–4 on one objective level's ΠD > 0
// passers, fanning the work across opts.Workers goroutines. The result
// slice is aligned with the level's entries (nil = rejected), so
// selection order is independent of scheduling. A done context stops
// the evaluation early (checked once per chunk); the caller detects the
// interruption via ctx.Err.
//
// A sequential evaluation uses sc; goroutine w of a parallel one uses
// the conflict scratch of own's worker state w — scratches are
// single-owner, and this indexing keeps each one on exactly one
// goroutine per level while its decision cache persists across levels.
func evaluateLevel(ctx context.Context, lv *levelPassers, cctx *candCtx, sc *conflict.Scratch, own *workerStates) []*Result {
	results := make([]*Result, len(lv.ords))
	workers := cctx.opts.Workers
	done := ctx.Done()
	if workers <= 1 {
		for i := range results {
			if i&ctxCheckMask == 0 && isDone(done) {
				return results
			}
			if r, ok := cctx.tryValid(lv.pi(i), sc); ok {
				results[i] = r
			}
		}
		return results
	}
	var wg sync.WaitGroup
	next := int64(0)
	// Many candidates are rejected in nanoseconds (the scratch's
	// decision cache answers repeated h lines), so workers claim chunks
	// rather than single indexes — per-item atomics would cost more than
	// the work itself.
	const chunk = 512
	// bestIdx is a monotone watermark: once a passer at index i exists,
	// later indexes cannot win the earliest-passer rule, so workers skip
	// them. Under MinimizeBuffers every passer matters and the watermark
	// stays disabled.
	n := int64(len(results))
	bestIdx := n
	useWatermark := !cctx.opts.MinimizeBuffers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sc *conflict.Scratch) {
			defer wg.Done()
			for {
				if isDone(done) {
					return
				}
				lo := (atomic.AddInt64(&next, 1) - 1) * chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				if useWatermark && lo > atomic.LoadInt64(&bestIdx) {
					continue
				}
				for i := lo; i < hi; i++ {
					if useWatermark && i > atomic.LoadInt64(&bestIdx) {
						break
					}
					if r, ok := cctx.tryValid(lv.pi(int(i)), sc); ok {
						results[i] = r
						if useWatermark {
							for {
								cur := atomic.LoadInt64(&bestIdx)
								if i >= cur || atomic.CompareAndSwapInt64(&bestIdx, cur, i) {
									break
								}
							}
						}
					}
				}
			}
		}(own.get(w).sc)
	}
	wg.Wait()
	return results
}

// pickWinner applies the deterministic selection rule to one level's
// results and returns the winner's index, or −1: earliest passer, or —
// under MinimizeBuffers — the passer with the fewest total buffers
// (earliest among equals).
func pickWinner(results []*Result, opts *Options) int {
	best := -1
	for i, r := range results {
		if r == nil {
			continue
		}
		if best < 0 {
			best = i
			if !opts.MinimizeBuffers {
				return best
			}
			continue
		}
		if r.Decomp.TotalBuffers() < results[best].Decomp.TotalBuffers() {
			best = i
		}
	}
	return best
}

// candCtx carries the per-search state of Procedure 5.1's step-5 tests:
// the factored analyzer and the cached dependence columns (Matrix.Col
// allocates a fresh vector per call).
type candCtx struct {
	algo     *uda.Algorithm
	s        *intmat.Matrix
	opts     *Options
	analyzer *conflict.SpaceAnalyzer
	depCols  []intmat.Vector

	// errMu guards err, the first failure observed by any worker. try
	// runs inside evaluateLevel's goroutines, where a panic would crash
	// the process instead of unwinding to the caller's Guard — so
	// failures are captured here and re-surfaced by takeErr.
	errMu sync.Mutex
	err   error
}

// newCandCtx builds the step-5 state for one S. depCols are algo's
// dependence columns already extracted (a walker's); only bufferDepth
// reads them.
func newCandCtx(algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, depCols []intmat.Vector) *candCtx {
	return &candCtx{algo: algo, s: s, opts: opts, analyzer: analyzer, depCols: depCols}
}

// recordErr stores the first failure; later ones are dropped.
func (c *candCtx) recordErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// takeErr returns the recorded failure, if any.
func (c *candCtx) takeErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// try applies the four tests of Procedure 5.1's step 5 to a single Π
// with a pooled conflict scratch, for callers that test a Π or two.
func (c *candCtx) try(pi intmat.Vector) (*Result, bool) {
	if !Valid(pi, c.algo.D) {
		return nil, false
	}
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	return c.tryValid(pi, sc)
}

// tryValid is try on a Π already known to satisfy ΠD > 0 (one a walker
// visits): tests 2–4 only, with the caller's conflict scratch. The
// analyzer subsumes the rank(T) = k test: it reports ErrRank exactly
// when Π is a rational combination of S's rows, which rejects Π. Any
// other decision error is recorded (recordErr) and fails the search:
// treating it as a rejection could report a later Π as optimal.
func (c *candCtx) tryValid(pi intmat.Vector, sc *conflict.Scratch) (*Result, bool) {
	algo, s, opts := c.algo, c.s, c.opts
	res, err := c.analyzer.DecideScratch(sc, pi)
	if err != nil {
		if !errors.Is(err, conflict.ErrRank) {
			c.recordErr(err)
		}
		return nil, false
	}
	if !res.ConflictFree {
		return nil, false
	}
	t, err := TotalTimeChecked(pi, algo.Set)
	if err != nil {
		c.recordErr(err)
		return nil, false
	}
	r := &Result{
		Mapping:  &Mapping{Algo: algo, S: s, Pi: pi.Clone(), T: s.AppendRow(pi)},
		Time:     t,
		Conflict: res,
	}
	if opts.Machine != nil {
		dec, err := opts.Machine.Decompose(s, algo.D, pi)
		if err != nil {
			return nil, false
		}
		if opts.RequireSingleHop && !dec.SingleHop() {
			return nil, false
		}
		r.Decomp = dec
	}
	return r, true
}

// maxCostOr returns maxCost, or when it is 0 the default ceiling on
// Σ|π_i|·μ_i: large enough for every optimum this repository meets (the
// matmul optimum is μ(μ+2), the transitive-closure optimum μ(μ+3))
// while keeping a wrong-model search from running unbounded.
func maxCostOr(maxCost int64, set uda.IndexSet) int64 {
	if maxCost != 0 {
		return maxCost
	}
	var sum, most int64
	for _, u := range set.Upper {
		sum, most = sum+u, max(most, u)
	}
	return 4 * (most + 2) * sum
}
