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

	"lodim/internal/array"
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
	stats := &SearchStats{}
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		return nil, err
	}
	j := getLevelWalk(algo, &SpaceOptions{Schedule: *opts}, stats, 1)
	defer j.release()
	j.add(*analyzer, 0, 0)
	best, err := j.run(ctx, 1)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("%w: algorithm %q, S =\n%v, cost ≤ %d", ErrNoSchedule, algo.Name, s, maxCostOr(opts.MaxCost, algo.Set))
	}
	found := best.res
	elapsed := time.Since(startAt)
	found.Stats = stats.finish("procedure-5.1", 1, 0, elapsed, elapsed)
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
// decision memo, which it keeps for the whole call. The walk owns the
// storage behind them and keeps it from call to call: one conflict
// scratch per goroutine, whose slab lends each memo the regions of its
// conflict-vector table and decision cache (see DESIGN.md, "Joint
// search engine"). In run, the first
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
	stats  *SearchStats
	live   []walkS
	wk     *piWalker
	// scs holds a conflict scratch per goroutine: scs[0] the walking
	// goroutine's, scs[w] helper w's. A memo takes new regions only from
	// the slab of the goroutine testing it, so no two goroutines ever
	// take from one slab.
	scs   []*conflict.Scratch
	pis   []int64 // the passers buffered for testing, n entries each
	picks []int64 // live S i's pick at picks[i*n : i*n+n]
	seen  int64   // the passers the walk visited, buffered ones too
	open  int     // the S open at the last closing
	errs  firstErr
	done  <-chan struct{}

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
	analyzer conflict.SpaceAnalyzer // S, on the shape catalogue's storage
	memo     conflict.Memo          // its decision state, on the walk's slabs
	wire, lb int64                  // its wire term and its cost lower bound
	// When picked, pick is what step 5 recorded of its pick (Π itself
	// is in the walk's picks), ord the number of passers the walk
	// visited before it, buf its buffers (under MinimizeBuffers or in a
	// Pareto walk), procs and cost its exact array metrics (when the
	// walk has several S to rank, or is a Pareto walk). res is the pick
	// as a Result, built by run for the winner alone.
	picked      bool
	pick        pass
	ord, buf    int64
	procs, cost int64
	res         *Result
	closed      bool // no longer tested
}

var walkPool = sync.Pool{New: func() any { return new(levelWalk) }}

// getLevelWalk returns a pooled walk prepared for up to n live S. The
// step-5 tests certify nothing: the boundaries that hand out a result
// certify it.
func getLevelWalk(algo *uda.Algorithm, opts *SpaceOptions, stats *SearchStats, n int) *levelWalk {
	j := walkPool.Get().(*levelWalk)
	*j = levelWalk{algo: algo, opts: opts.Schedule, weight: wireWeightOrDefault(opts), prune: !opts.NoPrune,
		stats: stats, live: slices.Grow(j.live[:0], n), pis: j.pis[:0], scs: j.scratches(1),
		wk: getWalker(algo)}
	j.opts.Workers = 0
	return j
}

// scratches returns j's scratches, grown to at least n.
func (j *levelWalk) scratches(n int) []*conflict.Scratch {
	for len(j.scs) < n {
		j.scs = append(j.scs, conflict.GetScratch())
	}
	return j.scs
}

// add makes the S of analyzer a live S of the walk, with its wire term
// and cost lower bound. Every S is added before the walk starts: a live
// S must not move while its memo is bound to its analyzer.
func (j *levelWalk) add(analyzer conflict.SpaceAnalyzer, wire, lb int64) {
	j.live = append(j.live, walkS{analyzer: analyzer, wire: wire, lb: lb})
}

// run walks the levels from max(MinCost, 1) up and returns the winning
// S with its res built and completed with the Procedure 5.1 count and
// method, or nil when no level up to MaxCost has a conflict-free passer
// for any S.
//
// Every open S tests every passer the walk visits below the final
// level, so the winner's count is the passers before its pick plus the
// pick, or under MinimizeBuffers all the walk visited; the walk's own
// count is every passer it visited.
func (j *levelWalk) run(ctx context.Context, workers int) (*walkS, error) {
	if j.opts.MinimizeBuffers && j.opts.Machine == nil {
		return nil, errors.New("schedule: MinimizeBuffers requires a Machine")
	}
	best := -1
	err := j.levels(ctx, workers, func(int64) bool {
		for i := range j.live {
			if j.live[i].picked && (best < 0 || j.less(i, best)) {
				best = i
			}
		}
		return best < 0
	})
	if err != nil || best < 0 {
		return nil, err
	}
	js := &j.live[best]
	count := js.ord + 1
	if j.opts.MinimizeBuffers {
		count = j.seen
	}
	js.res = js.pick.result(j.algo, js.analyzer.S, j.pickPi(best))
	js.res.Candidates, js.res.Method = int(count), "procedure-5.1"
	return js, nil
}

// pickPi returns live S i's pick, in the walk's storage.
func (j *levelWalk) pickPi(i int) intmat.Vector {
	n := j.wk.n
	return j.picks[i*n : (i+1)*n : (i+1)*n]
}

// less is jointLess on the picks of live S a and b, without building
// their results.
func (j *levelWalk) less(a, b int) bool {
	x, y := &j.live[a], &j.live[b]
	mx := Mapping{S: x.analyzer.S, Pi: j.pickPi(a)}
	my := Mapping{S: y.analyzer.S, Pi: j.pickPi(b)}
	rx, ry := x.joint(&mx, nil), y.joint(&my, nil)
	return jointLess(&rx, &ry)
}

// levels walks the objective levels from max(MinCost, 1) up to
// MaxCost, testing each level's passers against every open S, and calls
// each after every level; it stops when each returns false or no S is
// open. Each level gets a "level" span; the span of ctx gets the walk's
// counts, and stats its counts and the scratches' decision counters.
func (j *levelWalk) levels(ctx context.Context, workers int, each func(cost int64) bool) (err error) {
	levels := int64(0)
	span := trace.FromContext(ctx) // resolved once: the level spans are its children
	defer func() {
		for _, sc := range j.scs {
			j.stats.drainScratch(sc)
		}
		j.stats.CostLevels += levels
		j.stats.ScheduleCandidates += j.seen
		span.SetInt("candidates", j.seen)
		span.SetInt("levels", levels)
	}()
	if len(j.live) == 0 {
		return nil
	}
	j.done, j.open = ctx.Done(), len(j.live)
	j.picks = resize(j.picks, len(j.live)*j.wk.n)
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

// joint is js's pick as a joint result with mapping m and schedule
// result res.
func (js *walkS) joint(m *Mapping, res *Result) JointResult {
	return JointResult{
		SpaceResult:    SpaceResult{Mapping: m, Processors: js.procs, WireLength: js.wire, Cost: js.cost, Time: js.pick.time},
		ScheduleResult: res,
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
	if j.try(0, pi, j.seen-1, j.scs[0]); j.live[0].closed {
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
		j.claim(j.scs[0])
		j.wg.Wait()
	} else {
		j.claim(j.scs[0])
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
		if js := &j.live[i]; js.picked {
			best = min(best, js.cost)
		}
	}
	j.open = 0
	for i := range j.live {
		js := &j.live[i]
		bound := js.lb
		if js.picked {
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
		if !j.live[i].closed {
			j.test(i, sc)
			claimed++
		}
	}
}

// test runs the buffered passers, in walk order, through try until
// live S i closes.
func (j *levelWalk) test(i int, sc *conflict.Scratch) {
	n, first := j.wk.n, j.seen-int64(j.buffered())
	for b := range j.buffered() {
		if j.try(i, j.pis[b*n:(b+1)*n:(b+1)*n], first+int64(b), sc); j.live[i].closed {
			return
		}
	}
}

// try runs passer pi, the walk's ord-th (from 0), through the step-5
// tests of live S i. The first conflict-free passer settles it, closing
// it — or, under MinimizeBuffers, it keeps testing for the passer with
// the fewest buffers (the first among equals). A Pareto walk picks the
// same way by bufferDepth, across levels: each pick has fewer buffers
// than every earlier one, and the S stays open until a pick has none.
func (j *levelWalk) try(i int, pi intmat.Vector, ord int64, sc *conflict.Scratch) {
	js := &j.live[i]
	p, ok := step5(j.algo, &j.opts, &js.analyzer, sc, &js.memo, &j.errs, pi)
	if !ok {
		return
	}
	var buf int64
	if j.pareto {
		buf = bufferDepth(pi, j.wk.depCols)
	} else if j.opts.MinimizeBuffers {
		buf = p.decomp.TotalBuffers()
	}
	switch {
	case !js.picked && (len(j.live) > 1 || j.pareto):
		js.procs = countProcessorImages(js.analyzer.S, j.algo.Set)
		js.cost = js.procs + j.weight*js.wire
	case js.picked && buf >= js.buf:
		return
	}
	copy(j.pickPi(i), pi)
	js.picked, js.pick, js.ord, js.buf = true, p, ord, buf
	js.closed = j.pareto && buf == 0 || !j.pareto && !j.opts.MinimizeBuffers
}

// spawn starts the walk's helper goroutines for workers ≥ 2, each under
// a "worker" span and with its own scratch.
func (j *levelWalk) spawn(ctx context.Context, workers int) {
	j.helpers = effectiveWorkers(workers, len(j.live)) - 1
	if j.helpers == 0 {
		return
	}
	j.scratches(1 + j.helpers)
	j.start = make(chan struct{}, j.helpers) // one token per helper and chunk
	for w := 1; w <= j.helpers; w++ {
		go func() {
			_, span := trace.Start(ctx, "worker")
			span.SetInt("worker", int64(w))
			sc := j.scs[w]
			claimed := int64(0)
			for range j.start {
				claimed += j.claim(sc)
				j.wg.Done()
			}
			span.SetInt("claimed", claimed)
			span.End()
			j.wg.Done()
		}()
	}
}

// release stops the helpers, resets the scratches (freeing every
// memo's regions), and returns the walker and j, with its live S,
// buffer and scratches, to their pools.
func (j *levelWalk) release() {
	if j.start != nil {
		j.wg.Add(j.helpers)
		close(j.start)
		j.wg.Wait()
	}
	for _, sc := range j.scs {
		sc.Reset()
	}
	putWalker(j.wk)
	clear(j.live)
	*j = levelWalk{live: j.live[:0], pis: j.pis, picks: j.picks, scs: j.scs}
	walkPool.Put(j)
}

// firstErr keeps the first failure any goroutine of a search records;
// later ones are dropped. Decisions run inside the walk's helper
// goroutines, where a panic would crash the process instead of
// unwinding to the caller's Guard — so failures are captured here (by
// step5, or around a goroutine's claim loop) and re-surfaced by
// takeErr.
type firstErr struct{ err atomic.Pointer[error] }

func (f *firstErr) recordErr(err error) { f.err.CompareAndSwap(nil, &err) }

// takeErr returns the recorded failure, if any.
func (f *firstErr) takeErr() error {
	if err := f.err.Load(); err != nil {
		return *err
	}
	return nil
}

// pass is what step 5 records of a Π that passes its tests: a level
// walk keeps one per S and builds a Result only for the picks it
// reports.
type pass struct {
	time   int64
	method string               // the Method of the conflict-free verdict
	decomp *array.Decomposition // under a Machine
}

// result builds the Result of Π passing step 5 for S.
func (p *pass) result(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector) *Result {
	return &Result{
		Mapping:  ownedMapping(algo, s, pi),
		Time:     p.time,
		Conflict: conflict.Result{ConflictFree: true, Method: p.method},
		Decomp:   p.decomp,
	}
}

// ownedMapping returns the mapping [S; Π] of a search result, on
// copies of S and Π that the caller owns.
func ownedMapping(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector) *Mapping {
	return &Mapping{Algo: algo, S: s.Clone(), Pi: pi.Clone(), T: s.AppendRow(pi)}
}

// step5 runs tests 2–4 of Procedure 5.1's step 5 on a Π already known
// to satisfy ΠD > 0 (one a walker visits), with scratch sc and the
// decision memo of S. The analyzer subsumes the rank(T) = k test: it
// reports ErrRank exactly when Π is a rational combination of S's
// rows, which rejects Π. Any other decision error is recorded in errs
// and fails the search: treating it as a rejection could report a
// later Π as optimal. A conflict-free verdict carries no witness, so
// the pass keeps only its Method.
func step5(algo *uda.Algorithm, opts *Options, sa *conflict.SpaceAnalyzer, sc *conflict.Scratch, memo *conflict.Memo, errs *firstErr, pi intmat.Vector) (pass, bool) {
	res, err := sa.DecideMemo(sc, memo, pi)
	if err != nil {
		if !errors.Is(err, conflict.ErrRank) {
			errs.recordErr(err)
		}
		return pass{}, false
	}
	if !res.ConflictFree {
		return pass{}, false
	}
	t, err := TotalTimeChecked(pi, algo.Set)
	if err != nil {
		errs.recordErr(err)
		return pass{}, false
	}
	dec, ok := realize(opts, sa.S, algo.D, pi)
	if !ok {
		return pass{}, false
	}
	return pass{time: t, method: res.Method, decomp: dec}, true
}

// realize is test 4 of step 5: the realization of [S; Π] on
// opts.Machine, nil when no machine is configured. ok is false when S·D
// does not decompose into the machine's primitives within slack, or,
// under RequireSingleHop, when some transfer needs more than one hop.
func realize(opts *Options, s, d *intmat.Matrix, pi intmat.Vector) (_ *array.Decomposition, ok bool) {
	if opts.Machine == nil {
		return nil, true
	}
	dec, err := opts.Machine.Decompose(s, d, pi)
	if err != nil || opts.RequireSingleHop && !dec.SingleHop() {
		return nil, false
	}
	return dec, true
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
