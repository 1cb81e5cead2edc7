package schedule

import (
	"context"
	"fmt"
	"math"
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
	// enumeration fallback). Rank-deficient S surfaces on first use.
	var analyzer *conflict.SpaceAnalyzer
	if !opts.NoFactorization {
		var err error
		analyzer, err = conflict.NewSpaceAnalyzer(s, algo.Set)
		if err != nil {
			return nil, err
		}
	}
	return findOptimalWith(ctx, algo, s, opts, analyzer, nil)
}

// ctxCheckMask paces the in-level cancellation checks: a typical
// rejected candidate costs nanoseconds, so the enumeration polls the
// context once every 256 candidates (plus once per level).
const ctxCheckMask = 255

// innerEnv is what a joint or Pareto call lends each of its inner Π
// searches: the call's shared counters and Π ladder, and the calling
// worker's conflict scratch, which that worker keeps for the whole call.
type innerEnv struct {
	stats  *statsCollector
	ladder *piLadder         // nil: every level is streamed
	sc     *conflict.Scratch // nil: the search takes its own from the pool
}

// findOptimalWith is the enumeration engine behind FindOptimal with a
// caller-supplied (possibly nil) factored analyzer. The joint optimizer
// (spaceopt.go) builds one analyzer per space-mapping candidate and
// shares it between this search and the array-metric evaluation, so the
// Π-independent Hermite work happens exactly once per S.
//
// env is nil for a top-level search, which owns a fresh collector,
// attaches its snapshot to the winning Result and formats ErrNoSchedule
// with the algorithm, S and the cost bound. An inner search (non-nil
// env) adds its level and candidate counts to env.stats once, at its
// end, and reports a bare ErrNoSchedule: its caller only tests for the
// sentinel. When env.ladder is non-nil it supplies each objective
// level's Π that pass ΠD > 0 in place of streaming enumerate; levels it
// does not hold are streamed all the same. Counts are identical either
// way: a level adds its winner's ordinal + 1, or its raw size when no
// entry wins, exactly what the streaming scan counts.
func findOptimalWith(ctx context.Context, algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, env *innerEnv) (_ *Result, err error) {
	ownStats := env == nil
	var stats *statsCollector
	var ladder *piLadder
	if ownStats {
		stats = &statsCollector{}
	} else {
		stats, ladder = env.stats, env.ladder
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
	startAt := time.Now()
	maxCost := opts.MaxCost
	if maxCost == 0 {
		maxCost = defaultMaxCost(algo.Set)
	}
	minCost := opts.MinCost
	if minCost < 1 {
		minCost = 1
	}
	if opts.MinimizeBuffers && opts.Machine == nil {
		return nil, fmt.Errorf("schedule: MinimizeBuffers requires a Machine")
	}
	var depCols []intmat.Vector
	if ladder != nil {
		depCols = ladder.depCols
	}
	cctx := newCandCtx(algo, s, opts, analyzer, depCols)
	// One conflict scratch per worker, held across cost levels: the
	// scratch's decision cache is what makes neighbouring candidates
	// incremental (adjacent levels re-probe the same h lines), so it must
	// survive level boundaries. A sequential inner search uses the
	// scratch its caller lends; otherwise the scratches come from the
	// pool, and their counters drain into stats before the snapshot and
	// again — idempotently — when they are released.
	var scs []*conflict.Scratch
	if analyzer != nil {
		nw := opts.Workers
		if nw < 1 {
			nw = 1
		}
		if nw == 1 && env != nil && env.sc != nil {
			scs = []*conflict.Scratch{env.sc}
		} else {
			scs = make([]*conflict.Scratch, nw)
			for i := range scs {
				scs[i] = conflict.GetScratch()
			}
			defer func() {
				for _, sc := range scs {
					stats.drainScratch(sc)
					conflict.PutScratch(sc)
				}
			}()
		}
	}
	var seqScratch *conflict.Scratch
	if len(scs) > 0 {
		seqScratch = scs[0]
	}
	// The ladder's held levels are read from one snapshot; levels it
	// does not hold — all of them for a top-level search — are streamed,
	// or, on the level-synchronous path, built into spare, whose storage
	// is reused from level to level.
	held := ladder.reader()
	levelSync := opts.Workers > 1 || opts.MinimizeBuffers
	done := ctx.Done()
	var spare *piLevel
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
		levelStart := candidates
		endLevel := func() {
			levelSpan.SetInt("candidates", int64(candidates-levelStart))
			levelSpan.End()
		}
		lv, err := held.level(ctx, cost)
		if err != nil {
			endLevel()
			return nil, err
		}
		if levelSync {
			// Level-synchronous evaluation: test the level's ΠD > 0
			// passers (in parallel when configured), then apply the
			// deterministic selection rule over all of them.
			if lv == nil {
				if spare == nil {
					spare = new(piLevel)
				}
				if _, err := spare.fill(ctx, algo.Set.Upper, cctx.depCols, cost, math.MaxInt64); err != nil {
					endLevel()
					return nil, err
				}
				lv = spare
			}
			candidates += int(lv.raw)
			results := evaluateLevel(ctx, lv, cctx, scs)
			// A context that ended mid-level may have left earlier
			// (potentially winning) candidates unevaluated, so the
			// level's verdict cannot be trusted — report the
			// interruption instead.
			if isDone(done) {
				endLevel()
				return nil, ctx.Err()
			}
			found = pickWinner(results, opts)
			endLevel()
			continue
		}
		// Sequential fast path: the first passer in enumeration order
		// wins, so evaluation can stop early.
		seen, err := scanLevel(ctx, lv, algo.Set.Upper, cctx.depCols, cost, func(pi intmat.Vector, _ int64) bool {
			r, ok := cctx.tryValid(pi, seqScratch)
			if ok {
				found = r
			}
			return !ok
		})
		candidates += int(seen)
		endLevel()
		if err != nil {
			return nil, err
		}
	}
	stats.costLevels.Add(levels)
	stats.scheduleCandidates.Add(int64(candidates))
	if ownStats {
		for _, sc := range scs {
			stats.drainScratch(sc)
		}
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
		workers := opts.Workers
		if workers < 1 {
			workers = 1
		}
		elapsed := time.Since(startAt)
		found.Stats = stats.snapshot("procedure-5.1", workers, 0, elapsed, elapsed)
		found.Stats.annotateSpan(span)
		found.Trace = trace.SummaryFromContext(ctx)
	}
	return found, nil
}

// evaluateLevel runs tests 2–4 on one objective level's ΠD > 0
// passers, fanning the work across opts.Workers goroutines. The result
// slice is aligned with the level's entries (nil = rejected), so
// selection order is independent of scheduling. A done context stops the evaluation early (checked once
// per chunk); the caller detects the interruption via ctx.Err.
//
// scs, when non-empty, holds one conflict scratch per worker (index w
// for goroutine w) — scratches are single-owner, and this indexing
// keeps each one on exactly one goroutine per level while its decision
// cache persists across levels.
func evaluateLevel(ctx context.Context, lv *piLevel, cctx *candCtx, scs []*conflict.Scratch) []*Result {
	results := make([]*Result, lv.Len())
	workers := cctx.opts.Workers
	scratchFor := func(w int) *conflict.Scratch {
		if w < len(scs) {
			return scs[w]
		}
		return nil
	}
	done := ctx.Done()
	if workers <= 1 {
		sc := scratchFor(0)
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
		}(scratchFor(w))
	}
	wg.Wait()
	return results
}

// pickWinner applies the deterministic selection rule to one level's
// results: earliest passer, or — under MinimizeBuffers — the passer
// with the fewest total buffers (earliest among equals).
func pickWinner(results []*Result, opts *Options) *Result {
	var best *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if best == nil {
			best = r
			if !opts.MinimizeBuffers {
				return best
			}
			continue
		}
		if opts.MinimizeBuffers && r.Decomp.TotalBuffers() < best.Decomp.TotalBuffers() {
			best = r
		}
	}
	return best
}

// candCtx carries the per-search state of Procedure 5.1's step-5 tests:
// the optional factored analyzer and the cached dependence columns
// (Matrix.Col allocates a fresh vector per call, and the ΠD > 0 test
// runs once per enumerated candidate).
type candCtx struct {
	algo     *uda.Algorithm
	s        *intmat.Matrix
	opts     *Options
	analyzer *conflict.SpaceAnalyzer
	depCols  []intmat.Vector

	// errMu guards err, the first arithmetic failure observed by any
	// worker. try runs inside evaluateLevel's goroutines, where a panic
	// would crash the process instead of unwinding to the caller's
	// Guard — so overflow is captured here and re-surfaced by takeErr.
	errMu sync.Mutex
	err   error
}

// newCandCtx builds the step-5 state for one S. depCols, when non-nil,
// are algo's dependence columns already extracted (a ladder's); nil
// extracts them afresh.
func newCandCtx(algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, depCols []intmat.Vector) *candCtx {
	if depCols == nil {
		depCols = depColumns(algo)
	}
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

// validCols is Valid on pre-extracted dependence columns.
func validCols(pi intmat.Vector, depCols []intmat.Vector) bool {
	for _, d := range depCols {
		if pi.Dot(d) <= 0 {
			return false
		}
	}
	return true
}

// tryCandidate applies the four tests of Procedure 5.1's step 5 to a
// single Π, building the full Result on success.
func tryCandidate(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector, opts *Options) (*Result, bool) {
	return newCandCtx(algo, s, opts, nil, nil).try(pi)
}

// try applies the four tests of Procedure 5.1's step 5 to a single Π,
// using the pre-built factored analyzer when available. The analyzer
// also subsumes the rank(T) = k test: it reports ErrRank exactly when Π
// is a rational combination of S's rows.
func (c *candCtx) try(pi intmat.Vector) (*Result, bool) {
	return c.tryWith(pi, nil)
}

// tryWith is try with an optional per-worker conflict scratch, which
// routes the decision through the arena-backed incremental path
// (conflict.DecideScratch). The verdict is identical either way; only
// the allocation profile and the informational Method/Witness of the
// conflict Result can differ.
func (c *candCtx) tryWith(pi intmat.Vector, sc *conflict.Scratch) (*Result, bool) {
	if !validCols(pi, c.depCols) {
		return nil, false
	}
	return c.tryValid(pi, sc)
}

// tryValid is tryWith on a Π already known to satisfy ΠD > 0 (a ladder
// entry): tests 2–4 only.
func (c *candCtx) tryValid(pi intmat.Vector, sc *conflict.Scratch) (*Result, bool) {
	algo, s, opts := c.algo, c.s, c.opts
	var res conflict.Result
	var err error
	switch {
	case c.analyzer != nil && sc != nil:
		res, err = c.analyzer.DecideScratch(sc, pi)
	case c.analyzer != nil:
		res, err = c.analyzer.Decide(pi)
	default:
		t := s.AppendRow(pi)
		if t.Rank() != t.Rows() {
			return nil, false
		}
		res, err = conflict.Decide(t, algo.Set)
	}
	if err != nil || !res.ConflictFree {
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

// defaultMaxCost is a generous ceiling on Σ|π_i|·μ_i: large enough for
// every optimum this repository meets (the matmul optimum is μ(μ+2),
// the transitive-closure optimum μ(μ+3)) while keeping a wrong-model
// search from running unbounded.
func defaultMaxCost(set uda.IndexSet) int64 {
	var sum, max int64
	for _, u := range set.Upper {
		sum += u
		if u > max {
			max = u
		}
	}
	return 4 * (max + 2) * sum
}

// enumerate visits every integer vector π with Σ|π_i|·μ_i exactly equal
// to cost, in lexicographic order (negative before positive at equal
// magnitude ordering is avoided by visiting values in increasing order
// −v_max … +v_max per coordinate). The visitor returns false to stop.
//
// A degenerate axis (μ_i = 0, a single-point dimension — legal even
// though validated algorithms keep μ_i ≥ 1) contributes nothing to the
// objective; it is enumerated at effective weight 1 so the recursion
// stays finite instead of dividing by zero, which means levels
// over-approximate f by |π_i| on such axes (the search stays complete
// in the limit).
func enumerate(mu intmat.Vector, cost int64, visit func(intmat.Vector) bool) bool {
	n := len(mu)
	w := make(intmat.Vector, n)
	for i, m := range mu {
		if m == 0 {
			m = 1
		}
		w[i] = m
	}
	// sufGCD[i] = gcd(w_i, …, w_{n−1}): the remaining axes can absorb a
	// budget only if it is divisible by their gcd, so whole subtrees —
	// and entire fruitless levels, e.g. every cost ≢ 0 (mod μ) on a
	// cube — are skipped in O(1).
	sufGCD := make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		sufGCD[i] = intmat.GCDAll(w[i], sufGCD[i+1])
	}
	pi := make(intmat.Vector, n)
	var rec func(i int, remaining int64) bool
	rec = func(i int, remaining int64) bool {
		if i == n {
			if remaining != 0 {
				return true
			}
			return visit(pi)
		}
		if remaining%sufGCD[i] != 0 {
			return true
		}
		// Each coordinate may take any value v with |v|·w_i ≤ remaining;
		// the final coordinate must land exactly.
		maxAbs := remaining / w[i]
		for v := -maxAbs; v <= maxAbs; v++ {
			pi[i] = v
			used := v * w[i]
			if used < 0 {
				used = -used
			}
			if !rec(i+1, remaining-used) {
				return false
			}
		}
		pi[i] = 0
		return true
	}
	return rec(0, cost)
}
