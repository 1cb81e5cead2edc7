package schedule

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
// order, making the result deterministic. It is the level walk of the
// joint search (levelWalk) with one space mapping, on the calling
// goroutine.
func FindOptimal(algo *uda.Algorithm, s *intmat.Matrix, opts *Options) (*Result, error) {
	return FindOptimalContext(context.Background(), algo, s, opts)
}

// FindOptimalContext is FindOptimal with cancellation: the enumeration
// checks ctx between objective levels and every few hundred candidates,
// so a cancelled or expired context stops the search promptly. When the
// context ends before a schedule is found the context's error is
// returned (not ErrNoSchedule — an interrupted search proves nothing
// about feasibility). An int64 overflow anywhere in the search is
// returned as an error.
func FindOptimalContext(ctx context.Context, algo *uda.Algorithm, s *intmat.Matrix, opts *Options) (_ *Result, err error) {
	defer intmat.Guard(&err)
	if opts == nil {
		opts = &Options{}
	}
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	if s.Cols() != algo.Dim() {
		return nil, fmt.Errorf("schedule: S has %d columns, algorithm dimension is %d", s.Cols(), algo.Dim())
	}
	// One span per Π search, with a child per cost level.
	ctx, span := trace.Start(ctx, "pi-search")
	defer span.End()
	startAt := time.Now()
	stats := &statsCollector{}
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		return nil, err
	}
	j := getLevelWalk(algo, &SpaceOptions{Schedule: *opts}, stats, 1)
	defer j.release()
	j.add(analyzer, 0, 0, &j.sc.Memo)
	best, err := j.run(ctx, 1)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("%w: algorithm %q, S =\n%v, cost ≤ %d", ErrNoSchedule, algo.Name, s, maxCostOr(opts.MaxCost, algo.Set))
	}
	found := best.res
	if opts.SelfCheck {
		if err := runSelfCheck(found.Mapping); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(startAt)
	found.Stats = stats.snapshot("procedure-5.1", 1, 0, elapsed, elapsed)
	found.Stats.annotateSpan(span)
	found.Trace = trace.SummaryFromContext(ctx)
	return found, nil
}

// ctxCheckMask paces the in-level cancellation checks: a walk step
// costs nanoseconds, so a level walk polls the context once every 256
// steps.
const ctxCheckMask = 255

// walkChunk is how many passers a walk of several S buffers before it
// tests them S by S, on the helpers too, and closes the S that cannot
// win. (A variable, so tests can move the boundaries.)
var walkChunk = 256

// walkFanoutMin is the fewest decisions (open S × buffered passers) a
// chunk hands to the helper goroutines; a smaller one is tested on the
// walking goroutine alone, as waking the helpers would cost more.
const walkFanoutMin = 64

// levelWalk is Procedure 5.1 for many space mappings at once, the
// engine of FindOptimal (one S), of the joint search and of the Pareto
// search (every candidate S). ΠD ≥ 1 depends on D and μ alone, so one
// walk of the objective levels serves every live S: each passer is
// tested against every S still open, each S with its own analyzer and
// decision memo, which it keeps for the whole call. In run, the first
// level where some S has a conflict-free passer holds the optimum time;
// the walk finishes it, so each S keeps the passer its own search would
// pick — its first conflict-free passer in walk order, or its
// fewest-buffer one under MinimizeBuffers — and jointLess selects among
// them. With prune set, an S whose cost lower bound exceeds the best
// exact cost found at that level is closed, as is a settled S costing
// more. A Pareto walk (pareto set) goes on past that level, and its
// caller harvests each level's picks (see try).
//
// A walk of several S buffers its passers in chunks and tests each
// chunk S by S, which keeps one S's memo hot across the chunk; with
// workers ≥ 2, helper goroutines held for the whole call split the open
// S of each chunk with the walking goroutine. Every S sees its passers
// in walk order whoever tests it, and S are closed only at chunk
// boundaries, so every decision and count is the same at any worker
// count. A lone S (FindOptimal) tests each passer as the walk visits
// it, so the walk stops at its pick.
type levelWalk struct {
	algo   *uda.Algorithm
	opts   Options // the options of the step-5 tests
	weight int64
	prune  bool
	pareto bool
	stats  *statsCollector
	live   []walkS
	wk     *piWalker
	sc     *conflict.Scratch // the walking goroutine's
	pis    []int64           // the passers buffered for testing, n entries each
	seen   int64             // the passers the walk visited, buffered ones too
	open   int               // the S open at the last closing
	errs   firstErr
	done   <-chan struct{}

	// Each helper waits for a token on start per chunk it is handed,
	// claims S through next with the walking goroutine, and reports the
	// token done on wg.
	helpers int
	start   chan struct{}
	next    atomic.Int64
	wg      sync.WaitGroup
}

// walkS is one live space mapping of a walk and what it found.
type walkS struct {
	cctx     candCtx // its step-5 state: S, analyzer and decision memo
	wire, lb int64   // its wire term and its cost lower bound
	// res is its pick, ord the number of passers the walk visited
	// before it, buf its buffers (under MinimizeBuffers or in a Pareto
	// walk), procs and cost its exact array metrics once res is set
	// (when the walk has several S to rank, or is a Pareto walk).
	res         *Result
	ord, buf    int64
	procs, cost int64
	closed      bool // no longer tested
}

var walkPool = sync.Pool{New: func() any { return new(levelWalk) }}

// getLevelWalk returns a pooled walk prepared for up to n live S. The
// step-5 tests certify nothing: callers self-check their winner.
func getLevelWalk(algo *uda.Algorithm, opts *SpaceOptions, stats *statsCollector, n int) *levelWalk {
	j := walkPool.Get().(*levelWalk)
	*j = levelWalk{algo: algo, opts: opts.Schedule, weight: wireWeightOrDefault(opts), prune: !opts.NoPrune,
		stats: stats, live: slices.Grow(j.live[:0], n), pis: j.pis[:0],
		wk: getWalker(algo), sc: conflict.GetScratch()}
	j.opts.Workers, j.opts.SelfCheck = 0, false
	return j
}

// add makes the S of analyzer a live S of the walk, with its wire
// term, cost lower bound and decision memo: a pooled one, or for a lone
// S the walking scratch's own, which the scratch pool keeps warm
// between searches.
func (j *levelWalk) add(analyzer *conflict.SpaceAnalyzer, wire, lb int64, memo *conflict.Memo) {
	j.live = append(j.live, walkS{wire: wire, lb: lb, cctx: candCtx{algo: j.algo, s: analyzer.S, opts: &j.opts,
		analyzer: analyzer, depCols: j.wk.depCols, memo: memo, firstErr: &j.errs}})
}

// run walks the levels from max(MinCost, 1) up and returns the winning
// S, its res completed with the Procedure 5.1 count and method, or nil
// when no level up to MaxCost has a conflict-free passer for any S.
//
// Every open S tests every passer the walk visits below the final
// level, so the winner's count is the passers before its pick plus the
// pick, or under MinimizeBuffers all the walk visited; the walk's own
// count is every passer it visited.
func (j *levelWalk) run(ctx context.Context, workers int) (*walkS, error) {
	if j.opts.MinimizeBuffers && j.opts.Machine == nil {
		return nil, errors.New("schedule: MinimizeBuffers requires a Machine")
	}
	var best *walkS
	var bestR JointResult
	err := j.levels(ctx, workers, func(int64) bool {
		for i := range j.live {
			js := &j.live[i]
			if js.res == nil {
				continue
			}
			if r := js.joint(); best == nil || jointLess(&r, &bestR) {
				best, bestR = js, r
			}
		}
		return best == nil
	})
	if err != nil || best == nil {
		return nil, err
	}
	count := best.ord + 1
	if j.opts.MinimizeBuffers {
		count = j.seen
	}
	best.res.Candidates, best.res.Method = int(count), "procedure-5.1"
	return best, nil
}

// levels walks the objective levels from max(MinCost, 1) up to
// MaxCost, testing each level's passers against every open S, and calls
// each after every level; it stops when each returns false or no S is
// open. Each level gets a "level" span; the span of ctx gets the walk's
// counts, and stats its counts and the memos' decision counters.
func (j *levelWalk) levels(ctx context.Context, workers int, each func(cost int64) bool) (err error) {
	levels := int64(0)
	span := trace.FromContext(ctx) // resolved once: the level spans are its children
	defer func() {
		for i := range j.live {
			j.stats.drainMemo(j.live[i].cctx.memo)
		}
		j.stats.costLevels.Add(levels)
		j.stats.scheduleCandidates.Add(j.seen)
		span.SetInt("candidates", j.seen)
		span.SetInt("levels", levels)
	}()
	if len(j.live) == 0 {
		return nil
	}
	j.done, j.open = ctx.Done(), len(j.live)
	j.spawn(ctx, workers)
	visit := j.visit
	maxCost := maxCostOr(j.opts.MaxCost, j.algo.Set)
	for cost := max(j.opts.MinCost, 1); cost <= maxCost && j.open > 0; cost++ {
		if isDone(j.done) {
			return ctx.Err()
		}
		levels++
		levelSpan := span.Child("level")
		levelSpan.SetInt("cost", cost)
		err = j.wk.walk(ctx, cost, visit)
		if err == nil && len(j.pis) > 0 {
			j.flush()
		}
		if err == nil {
			err = j.errs.takeErr()
		}
		if err == nil && isDone(j.done) {
			err = ctx.Err()
		}
		levelSpan.End()
		if err != nil || !each(cost) {
			return err
		}
	}
	return nil
}

// joint is js's pick as a joint result.
func (js *walkS) joint() JointResult {
	return JointResult{
		SpaceResult:    SpaceResult{Mapping: js.res.Mapping, Processors: js.procs, WireLength: js.wire, Cost: js.cost, Time: js.res.Time},
		ScheduleResult: js.res,
	}
}

// visit takes the walk's next passer and reports whether the walk
// should go on: it buffers the passer, flushing every walkChunk of
// them, or tests it at once against a lone S.
func (j *levelWalk) visit(pi intmat.Vector) bool {
	j.seen++
	if len(j.live) > 1 {
		j.pis = append(j.pis, pi...)
		return j.buffered() < walkChunk || j.flush()
	}
	if j.try(&j.live[0], pi, j.seen-1, j.sc); j.live[0].closed {
		j.open = 0
	}
	return j.open > 0
}

// buffered is the number of passers buffered for testing.
func (j *levelWalk) buffered() int { return len(j.pis) / j.wk.n }

// flush tests the buffered passers against every open S, on the helpers
// too when there is enough work, and then closes the S that can no
// longer win.
func (j *levelWalk) flush() bool {
	j.next.Store(0)
	if j.helpers > 0 && j.open*j.buffered() >= walkFanoutMin {
		j.wg.Add(j.helpers)
		for range j.helpers {
			j.start <- struct{}{}
		}
		j.claim(j.sc)
		j.wg.Wait()
	} else {
		j.claim(j.sc)
	}
	j.pis = j.pis[:0]
	return j.close()
}

// close closes every S that can no longer win: one whose cost — or,
// unsettled, cost lower bound — exceeds the best exact cost settled so
// far. It reports whether the walk should go on: some S is open, and
// nothing failed or was cancelled.
func (j *levelWalk) close() bool {
	best := int64(math.MaxInt64)
	for i := range j.live {
		if js := &j.live[i]; js.res != nil {
			best = min(best, js.cost)
		}
	}
	j.open = 0
	for i := range j.live {
		js := &j.live[i]
		bound := js.lb
		if js.res != nil {
			bound = js.cost
		}
		if j.prune && bound > best {
			js.closed = true
		}
		if !js.closed {
			j.open++
		}
	}
	return j.open > 0 && !isDone(j.done) && j.errs.takeErr() == nil
}

// claim tests the buffered passers against open S, claimed one at a
// time, with scratch sc, and returns how many it tested.
func (j *levelWalk) claim(sc *conflict.Scratch) (claimed int64) {
	var err error // an overflow, which must fail the search, not the process
	defer func() {
		if err != nil {
			j.errs.recordErr(err)
		}
	}()
	defer intmat.Guard(&err)
	for {
		i := int(j.next.Add(1) - 1)
		if i >= len(j.live) || isDone(j.done) {
			return claimed
		}
		if js := &j.live[i]; !js.closed {
			j.test(js, sc)
			claimed++
		}
	}
}

// test runs the buffered passers, in walk order, through try until js
// closes.
func (j *levelWalk) test(js *walkS, sc *conflict.Scratch) {
	n, first := j.wk.n, j.seen-int64(j.buffered())
	for i := range j.buffered() {
		if j.try(js, j.pis[i*n:(i+1)*n:(i+1)*n], first+int64(i), sc); js.closed {
			return
		}
	}
}

// try runs passer pi, the walk's ord-th (from 0), through the step-5
// tests of js. The first conflict-free passer settles js, closing it —
// or, under MinimizeBuffers, js keeps testing for the passer with the
// fewest buffers (the first among equals). A Pareto walk picks the same
// way by bufferDepth, across levels: each pick has fewer buffers than
// every earlier one, and js stays open until a pick has none.
func (j *levelWalk) try(js *walkS, pi intmat.Vector, ord int64, sc *conflict.Scratch) {
	r, ok := js.cctx.tryValid(pi, sc)
	if !ok {
		return
	}
	var buf int64
	if j.pareto {
		buf = bufferDepth(pi, js.cctx.depCols)
	} else if j.opts.MinimizeBuffers {
		buf = r.Decomp.TotalBuffers()
	}
	switch {
	case js.res == nil && (len(j.live) > 1 || j.pareto):
		js.procs = countProcessorImages(js.cctx.s, j.algo.Set)
		js.cost = js.procs + j.weight*js.wire
	case js.res != nil && buf >= js.buf:
		return
	}
	js.res, js.ord, js.buf = r, ord, buf
	js.closed = j.pareto && buf == 0 || !j.pareto && !j.opts.MinimizeBuffers
}

// spawn starts the walk's helper goroutines for workers ≥ 2, each under
// a "worker" span and with its own scratch.
func (j *levelWalk) spawn(ctx context.Context, workers int) {
	j.helpers = effectiveWorkers(workers, len(j.live)) - 1
	if j.helpers == 0 {
		return
	}
	j.start = make(chan struct{}, j.helpers) // one token per helper and chunk
	for w := 1; w <= j.helpers; w++ {
		go func() {
			_, span := trace.Start(ctx, "worker")
			span.SetInt("worker", int64(w))
			sc := conflict.GetScratch()
			claimed := int64(0)
			for range j.start {
				claimed += j.claim(sc)
				j.wg.Done()
			}
			conflict.PutScratch(sc)
			span.SetInt("claimed", claimed)
			span.End()
			j.wg.Done()
		}()
	}
}

// release stops the helpers and returns the memos, the scratch, the
// walker and j itself to their pools.
func (j *levelWalk) release() {
	if j.start != nil {
		j.wg.Add(j.helpers)
		close(j.start)
		j.wg.Wait()
	}
	for i := range j.live {
		if m := j.live[i].cctx.memo; m != &j.sc.Memo {
			conflict.PutMemo(m)
		}
	}
	conflict.PutScratch(j.sc)
	putWalker(j.wk)
	clear(j.live)
	*j = levelWalk{live: j.live[:0], pis: j.pis}
	walkPool.Put(j)
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
	// memo is the decision state of S when the search keeps one per S;
	// nil uses the state of each worker's scratch.
	memo *conflict.Memo
	// firstErr receives the search's failures; a joint walk shares one
	// between all its S.
	*firstErr
}

// firstErr keeps the first failure any worker of a search records;
// later ones are dropped. Decisions run inside worker goroutines, where
// a panic would crash the process instead of unwinding to the caller's
// Guard — so failures are captured here (by tryValid, or around a
// worker's loop) and re-surfaced by takeErr.
type firstErr struct{ err atomic.Pointer[error] }

// newCandCtx builds the step-5 state for one S. depCols are algo's
// dependence columns already extracted (a walker's); only bufferDepth
// reads them.
func newCandCtx(algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, depCols []intmat.Vector) *candCtx {
	return &candCtx{algo: algo, s: s, opts: opts, analyzer: analyzer, depCols: depCols, firstErr: new(firstErr)}
}

func (f *firstErr) recordErr(err error) { f.err.CompareAndSwap(nil, &err) }

// takeErr returns the recorded failure, if any.
func (f *firstErr) takeErr() error {
	if err := f.err.Load(); err != nil {
		return *err
	}
	return nil
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
// visits): tests 2–4 only, with the caller's conflict scratch and the
// decision memo of S (c.memo, or else the scratch's own). The
// analyzer subsumes the rank(T) = k test: it reports ErrRank exactly
// when Π is a rational combination of S's rows, which rejects Π. Any
// other decision error is recorded (recordErr) and fails the search:
// treating it as a rejection could report a later Π as optimal.
func (c *candCtx) tryValid(pi intmat.Vector, sc *conflict.Scratch) (*Result, bool) {
	algo, s, opts := c.algo, c.s, c.opts
	memo := c.memo
	if memo == nil {
		memo = &sc.Memo
	}
	res, err := c.analyzer.DecideMemo(sc, memo, pi)
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
