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

// This file implements the two optimization problems the paper's
// Section 6 poses as future work:
//
//   - Problem 6.1 (space-optimal, conflict-free mapping): given a
//     linear schedule Π, find a space mapping S such that T = [S; Π] is
//     conflict-free and "the number of processors plus the wire length
//     of the array is minimized".
//   - Problem 6.2 (optimal conflict-free mapping): neither S nor Π is
//     given; find a conflict-free T optimizing a joint criterion (here:
//     total execution time first, then array cost).
//
// Both are solved by exhaustive search over small-coefficient space
// mappings — the paper gives no algorithm, and the space of practically
// used mappings has entries in {−1, 0, 1} (every S in the paper and its
// references does), so bounded exhaustive search is both exact for that
// class and fast. Candidates equivalent up to row reordering and row
// negation (which relabel the array without changing its geometry) are
// enumerated once.
//
// The search engine fans candidates across Schedule.Workers goroutines
// and prunes with three exact rules (see DESIGN.md, "Joint search
// engine"): axis-symmetry orbits keep only their lexicographically
// least member, a processor-count lower bound rejects candidates that
// cannot beat the incumbent cost, and the shared incumbent time bounds
// every inner schedule search. All three preserve the sequential
// winner, so results are identical at any worker count.

// SpaceOptions configures FindSpaceMapping and FindJointMapping.
type SpaceOptions struct {
	// MaxEntry bounds |s_ij| in the search (default 1).
	MaxEntry int64
	// WireWeight scales the wire-length term of the cost (default 1).
	WireWeight int64
	// Schedule options applied to the inner Π search (joint problem
	// only); the Machine option also applies to Problem 6.1. The
	// Workers field parallelizes the *outer* space-mapping search in
	// both problems (the joint inner searches always run sequentially,
	// which keeps their candidate counts deterministic).
	Schedule Options
	// NoPrune disables symmetry and lower-bound pruning, forcing every
	// candidate through full evaluation. The winner is unaffected; the
	// flag exists for validation and ablation measurements.
	NoPrune bool
}

// SpaceResult is the outcome of a space-mapping search.
type SpaceResult struct {
	Mapping *Mapping
	// Processors is |S(J)|, the exact number of array cells used.
	Processors int64
	// WireLength is Σ_i ‖S·d̄_i‖₁, the total transfer distance per use.
	WireLength int64
	// Cost = Processors + WireWeight·WireLength, the Problem 6.1
	// objective.
	Cost int64
	// Candidates counts space mappings enumerated (including pruned
	// ones).
	Candidates int
	// Pruned counts space mappings rejected before evaluation, by
	// symmetry or by cost lower bound. With Workers > 1 the lower-bound
	// rule races the incumbent, so Pruned may vary between runs; the
	// winning mapping never does.
	Pruned int
	// Time is the total execution time (joint problem: of the winning
	// schedule; Problem 6.1: of the given Π).
	Time int64
	// Stats carries the structured search statistics: per-rule pruning
	// counts, inner-search effort, and phase wall times. Unlike Pruned,
	// the per-rule counters are exact for orbit pruning and may vary
	// between runs for the incumbent-racing rules at Workers > 1.
	Stats *SearchStats
	// Trace references the span trace recorded for this search when the
	// caller's context carried an active trace span; nil when tracing is
	// off (see Result.Trace).
	Trace *trace.Summary
}

func (r *SpaceResult) String() string {
	return fmt.Sprintf("S =\n%v\nΠ = %v: %d processors, wire %d, t = %d",
		r.Mapping.S, r.Mapping.Pi, r.Processors, r.WireLength, r.Time)
}

// FindSpaceMapping solves Problem 6.1 by exhaustive search over
// (k−1)×n space mappings with entries bounded by MaxEntry: among all S
// making T = [S; Π] a valid conflict-free mapping (full rank; machine
// realizability when configured), it returns the one minimizing
// |S(J)| + WireWeight·Σ‖S·d̄_i‖₁, breaking ties lexicographically. The
// search runs on Schedule.Workers goroutines and returns the same
// winner at any worker count.
func FindSpaceMapping(algo *uda.Algorithm, pi intmat.Vector, arrayDims int, opts *SpaceOptions) (*SpaceResult, error) {
	return FindSpaceMappingContext(context.Background(), algo, pi, arrayDims, opts)
}

// FindSpaceMappingContext is FindSpaceMapping with cancellation: a done
// context stops the candidate loop promptly and the context's error is
// returned (an interrupted search proves nothing about feasibility). An
// int64 overflow, such as in Π·d̄ for huge dependence entries, is
// returned as an error.
func FindSpaceMappingContext(ctx context.Context, algo *uda.Algorithm, pi intmat.Vector, arrayDims int, opts *SpaceOptions) (_ *SpaceResult, err error) {
	defer intmat.Guard(&err)
	if opts == nil {
		opts = &SpaceOptions{}
	}
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	if len(pi) != algo.Dim() {
		return nil, fmt.Errorf("schedule: Π has %d entries, algorithm dimension is %d", len(pi), algo.Dim())
	}
	if !Valid(pi, algo.D) {
		return nil, fmt.Errorf("schedule: ΠD > 0 violated for Π = %v", pi)
	}
	if arrayDims < 1 || arrayDims >= algo.Dim() {
		return nil, fmt.Errorf("schedule: array dimensionality %d out of range [1, n-1]", arrayDims)
	}
	// Π is fixed across every candidate, so one checked evaluation here
	// proves the TotalTime calls inside the worker goroutines (same
	// inputs) cannot hit the overflow panic.
	if _, err := TotalTimeChecked(pi, algo.Set); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, "space-search")
	defer span.End()
	span.SetInt("dims", int64(arrayDims))
	startAt := time.Now()
	stats := &statsCollector{}
	cands, symPruned, err := collectCandidates(ctx, algo, arrayDims, maxEntryOrDefault(opts), opts.NoPrune, pi, stats)
	if err != nil {
		return nil, err
	}
	collectDur := time.Since(startAt)
	weight := wireWeightOrDefault(opts)
	results := make([]*SpaceResult, len(cands))
	var bestCost, prunedCount atomic.Int64
	bestCost.Store(math.MaxInt64)
	searchAt := time.Now()
	err = forEachCandidate(ctx, len(cands), opts.Schedule.Workers, func(_ context.Context, _, i int) error {
		s := cands[i]
		if symPruned[i] {
			prunedCount.Add(1)
			stats.prunedOrbit.Add(1)
			return nil
		}
		if !opts.NoPrune {
			// The candidate's cost is at least the processor lower
			// bound plus its exact wire term; the incumbent only
			// decreases, so a strict > here can never discard a
			// candidate tying the final minimum.
			lb := processorLowerBound(s, algo.Set.Upper) + weight*wireLength(s, algo.D)
			if lb > bestCost.Load() {
				prunedCount.Add(1)
				stats.prunedLowerBound.Add(1)
				return nil
			}
		}
		r, ok, err := evaluateSpaceMapping(algo, s, pi, opts)
		if !ok {
			return err
		}
		results[i] = r
		offerMin(&bestCost, r.Cost)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("schedule: space search: %w", err)
	}
	var best *SpaceResult
	for _, r := range results {
		if r == nil {
			continue
		}
		if best == nil || r.Cost < best.Cost {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no conflict-free space mapping with |entries| ≤ %d for Π = %v",
			ErrNoSchedule, maxEntryOrDefault(opts), pi)
	}
	best.Candidates = len(cands)
	best.Pruned = int(prunedCount.Load())
	if opts.Schedule.SelfCheck {
		if err := runSelfCheck(best.Mapping); err != nil {
			return nil, err
		}
	}
	best.Stats = stats.snapshot("space-6.1", effectiveWorkers(opts.Schedule.Workers, len(cands)),
		collectDur, time.Since(searchAt), time.Since(startAt))
	best.Stats.annotateSpan(span)
	best.Trace = trace.SummaryFromContext(ctx)
	return best, nil
}

// effectiveWorkers mirrors forEachCandidate's clamping for reporting.
func effectiveWorkers(workers, count int) int { return max(min(workers, count), 1) }

// JointResult is the outcome of the joint Problem 6.2 search.
type JointResult struct {
	SpaceResult
	// ScheduleResult carries the inner optimizer's certificate.
	ScheduleResult *Result
}

// FindJointMapping solves Problem 6.2: over all space mappings S with
// bounded entries, run the time-optimal schedule search and keep the
// mapping with the smallest total execution time, breaking ties by the
// Problem 6.1 array cost (then by the pinned semantic order of
// jointLess). The returned
// mapping is exact within the entry bound; entries beyond {−1, 0, 1}
// are rarely useful for space mappings but can be enabled through
// MaxEntry.
//
// The outer candidate loop runs on Schedule.Workers goroutines sharing
// a (time, cost) incumbent that tightens every inner search's cost
// ceiling; selection is by the total order of jointLess (time, cost,
// processors, Π key, S rows) over fully evaluated candidates, so the
// winner is identical at any worker count and never depends on
// discovery order. Inner searches that exhaust their bound report ErrNoSchedule
// and are skipped; any other inner error aborts the whole search.
func FindJointMapping(algo *uda.Algorithm, arrayDims int, opts *SpaceOptions) (*JointResult, error) {
	return FindJointMappingContext(context.Background(), algo, arrayDims, opts)
}

// FindJointMappingContext is FindJointMapping with cancellation: the
// outer candidate loop checks ctx before every claim and each inner Π
// search polls it between objective levels and every few hundred
// candidates, so a cancelled request stops burning workers promptly.
// When the context ends before the search completes, the context's
// error is returned (never ErrNoSchedule — an interrupted search proves
// nothing about feasibility). The first real (non-ErrNoSchedule) inner
// error also cancels the remaining candidates instead of letting the
// workers drain the whole list.
func FindJointMappingContext(ctx context.Context, algo *uda.Algorithm, arrayDims int, opts *SpaceOptions) (*JointResult, error) {
	if opts == nil {
		opts = &SpaceOptions{}
	}
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	if arrayDims < 1 || arrayDims >= algo.Dim() {
		return nil, fmt.Errorf("schedule: array dimensionality %d out of range [1, n-1]", arrayDims)
	}
	ctx, span := trace.Start(ctx, "joint-search")
	defer span.End()
	span.SetInt("dims", int64(arrayDims))
	startAt := time.Now()
	stats := &statsCollector{}
	cands, symPruned, err := collectCandidates(ctx, algo, arrayDims, maxEntryOrDefault(opts), opts.NoPrune, nil, stats)
	if err != nil {
		return nil, err
	}
	weight := wireWeightOrDefault(opts)
	baseMaxCost := maxCostOr(opts.Schedule.MaxCost, algo.Set)
	// Each worker keeps one conflict scratch and one level walker for
	// the whole call: binding the scratch to the next S's analyzer
	// resets its decision cache at a cost proportional to what the
	// previous inner search stored, and the walker keeps its count
	// tables and the levels it found barren.
	ws := newWorkerStates(algo, opts.Schedule.Workers, len(cands))
	defer ws.release(stats) // on the early returns; idempotent
	// tFloor is a lower bound on the total time of *any* candidate: the
	// cheapest Π satisfying ΠD > 0 alone (ignoring conflicts). Once the
	// incumbent reaches it, time cannot improve further, so candidates
	// whose cost lower bound loses the tie-break skip their inner
	// search entirely.
	tFloor := int64(-1)
	if !opts.NoPrune {
		c, err := ws.get(0).walk.firstValidLevel(ctx, baseMaxCost)
		if err != nil {
			return nil, fmt.Errorf("schedule: joint search: %w", err)
		}
		if c > 0 {
			tFloor = 1 + c
		}
	}
	inc := newIncumbent()
	results := make([]*JointResult, len(cands))
	var prunedCount atomic.Int64
	collectDur := time.Since(startAt)
	searchAt := time.Now()
	err = forEachCandidate(ctx, len(cands), opts.Schedule.Workers, func(wctx context.Context, w, i int) error {
		s := cands[i]
		if symPruned[i] {
			prunedCount.Add(1)
			stats.prunedOrbit.Add(1)
			return nil
		}
		wire := wireLength(s, algo.D)
		costLB := processorLowerBound(s, algo.Set.Upper) + weight*wire
		if !opts.NoPrune && tFloor > 0 {
			if iT, iC := inc.snapshot(); iT <= tFloor && costLB > iC {
				prunedCount.Add(1)
				stats.prunedLowerBound.Add(1)
				return nil
			}
		}
		analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
		if err != nil {
			return err
		}
		schedOpts := opts.Schedule
		// The outer loop owns the parallelism; a sequential inner
		// search also keeps the winner's Candidates count independent
		// of worker scheduling.
		schedOpts.Workers = 0
		// Self-checking every inner winner would certify hundreds of
		// losing candidates; only the final joint winner is certified
		// (below, after selection).
		schedOpts.SelfCheck = false
		// Bound the inner search by the incumbent: anything strictly
		// above the incumbent's time cannot win on the primary
		// criterion, but ties must stay reachable for the cost
		// tie-break — hence MaxCost = time − 1 (time = 1 + cost).
		bound := baseMaxCost
		if iT := inc.time(); iT != math.MaxInt64 && iT-1 < bound {
			bound = iT - 1
		}
		if bound < 1 {
			stats.prunedIncumbent.Add(1)
			return nil
		}
		schedOpts.MaxCost = bound
		stats.innerSearches.Add(1)
		res, err := findOptimalWith(wctx, algo, s, &schedOpts, analyzer, &innerEnv{stats: stats, ws: ws.get(w)})
		if errors.Is(err, ErrNoSchedule) {
			return nil // bounded out or genuinely unschedulable: skip
		}
		if err != nil {
			return err
		}
		iT, iC := inc.snapshot()
		if res.Time > iT {
			stats.prunedIncumbent.Add(1)
			return nil // incumbent improved since the bound was read
		}
		if !opts.NoPrune && res.Time == iT && costLB > iC {
			stats.prunedIncumbent.Add(1)
			return nil // can only tie on time and already loses on cost
		}
		procs := countProcessorImages(s, algo.Set)
		cost := procs + weight*wire
		results[i] = &JointResult{
			SpaceResult: SpaceResult{
				Mapping:    res.Mapping,
				Processors: procs,
				WireLength: wire,
				Cost:       cost,
				Time:       res.Time,
			},
			ScheduleResult: res,
		}
		inc.offer(res.Time, cost)
		return nil
	})
	ws.release(stats)
	if err != nil {
		return nil, fmt.Errorf("schedule: joint search: %w", err)
	}
	var best *JointResult
	for _, r := range results {
		if r == nil {
			continue
		}
		if best == nil || jointLess(r, best) {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no conflict-free joint mapping with |entries| ≤ %d",
			ErrNoSchedule, maxEntryOrDefault(opts))
	}
	best.Candidates = len(cands)
	best.Pruned = int(prunedCount.Load())
	if opts.Schedule.SelfCheck {
		if err := runSelfCheck(best.Mapping); err != nil {
			return nil, err
		}
	}
	best.Stats = stats.snapshot("joint-6.2", effectiveWorkers(opts.Schedule.Workers, len(cands)),
		collectDur, time.Since(searchAt), time.Since(startAt))
	best.ScheduleResult.Stats = best.Stats
	best.Stats.annotateSpan(span)
	best.Trace = trace.SummaryFromContext(ctx)
	best.ScheduleResult.Trace = best.Trace
	return best, nil
}

// jointLess is the pinned total tie-break order of the joint search:
// time, then Problem 6.1 array cost, then processor count, then the
// lexicographic Π key, then the lexicographic S rows. Every key is a
// property of the mapping itself — never a discovery index — so the
// winner is a pure function of the problem, locked by the
// Workers=1-vs-8 determinism test.
func jointLess(a, b *JointResult) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Processors != b.Processors {
		return a.Processors < b.Processors
	}
	return mappingLess(a.Mapping, b.Mapping)
}

func maxEntryOrDefault(opts *SpaceOptions) int64 {
	if opts.MaxEntry > 0 {
		return opts.MaxEntry
	}
	return 1
}

func wireWeightOrDefault(opts *SpaceOptions) int64 {
	if opts.WireWeight > 0 {
		return opts.WireWeight
	}
	return 1
}

// incumbent is the shared (time, cost) bound of the joint search,
// lexicographically tightened as candidates complete. The time is
// mirrored in an atomic so the hot bound-read needs no lock; the pair
// is read and written under the mutex.
type incumbent struct {
	mu sync.Mutex
	t  atomic.Int64
	c  int64
}

func newIncumbent() *incumbent {
	inc := &incumbent{c: math.MaxInt64}
	inc.t.Store(math.MaxInt64)
	return inc
}

func (inc *incumbent) time() int64 { return inc.t.Load() }

func (inc *incumbent) snapshot() (int64, int64) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.t.Load(), inc.c
}

func (inc *incumbent) offer(t, c int64) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	cur := inc.t.Load()
	if t < cur || (t == cur && c < inc.c) {
		inc.t.Store(t)
		inc.c = c
	}
}

// workerState is what one worker of a joint or Pareto call keeps for
// the whole call: a conflict scratch and a level walker, both pooled.
type workerState struct {
	sc   *conflict.Scratch
	walk *piWalker
}

// workerStates holds one workerState per worker of a call, indexed by
// forEachCandidate's worker number and filled on first use.
type workerStates struct {
	algo *uda.Algorithm
	ws   []workerState
}

func newWorkerStates(algo *uda.Algorithm, workers, count int) *workerStates {
	return &workerStates{algo: algo, ws: make([]workerState, effectiveWorkers(workers, count))}
}

func (s *workerStates) get(w int) *workerState {
	st := &s.ws[w]
	if st.sc == nil {
		st.sc, st.walk = conflict.GetScratch(), getWalker(s.algo)
	}
	return st
}

// release drains each scratch's cache counters into stats and returns
// the scratches and walkers to their pools; call it once the workers
// are done.
func (s *workerStates) release(stats *statsCollector) {
	for w := range s.ws {
		if st := &s.ws[w]; st.sc != nil {
			stats.drainScratch(st.sc)
			conflict.PutScratch(st.sc)
			putWalker(st.walk)
			*st = workerState{}
		}
	}
}

// collectCandidates is the prelude of the space-mapping searches, under
// one "collect" span: the canonical candidate list, each candidate's
// orbit mark (all false under noPrune; with pi non-nil, Problem 6.1's
// fixed schedule, only automorphisms fixing pi count), and the
// candidate count added to stats.
func collectCandidates(ctx context.Context, algo *uda.Algorithm, dims int, maxEntry int64, noPrune bool, pi intmat.Vector, stats *statsCollector) ([]*intmat.Matrix, []bool, error) {
	_, span := trace.Start(ctx, "collect")
	defer span.End()
	cands, err := collectSpaceMappings(algo.Dim(), dims, maxEntry)
	if err != nil {
		return nil, nil, err
	}
	var symPruned []bool
	if noPrune {
		symPruned = make([]bool, len(cands))
	} else {
		symPruned = symmetryPruned(cands, axisAutomorphisms(algo, pi))
	}
	span.SetInt("candidates", int64(len(cands)))
	stats.spaceCandidates.Add(int64(len(cands)))
	return cands, symPruned, nil
}

// forEachCandidate runs fn(ctx, w, i) for i in [0, count) on up to
// workers goroutines (sequentially when workers ≤ 1), where w in
// [0, effectiveWorkers(workers, count)) names the calling goroutine, so
// fn can keep per-worker state in a slice indexed by w. fn must confine
// writes to slots it owns. A done context stops the loop before the
// next claim; candidates already handed out finish their fn call
// (which observes the same context itself when it is expensive).
//
// The first error fn returns — or raises as an *intmat.OverflowError
// panic — cancels the context every other call sees, so the claim loop
// stops handing out candidates and running calls stop early. The
// result is the error of the call: a real error wins over the
// cancellations it caused; otherwise ctx's own error, if it ended.
//
// Each parallel worker runs under its own "worker" trace span carrying
// the count of candidates it claimed — the batching level the tracing
// layer attributes candidate work to (fn receives the worker's span
// context, so inner searches nest under it). The sequential path adds
// no span: its work already nests under the caller's phase span.
func forEachCandidate(ctx context.Context, count, workers int, fn func(ctx context.Context, w, i int) error) error {
	searchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, count)
	call := func(ctx context.Context, w, i int) {
		if err := callGuarded(fn, ctx, w, i); err != nil {
			errs[i] = err
			cancel()
		}
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			if searchCtx.Err() != nil {
				break
			}
			call(searchCtx, 0, i)
		}
		return searchErr(ctx, errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx, span := trace.Start(searchCtx, "worker")
			span.SetInt("worker", int64(w))
			claimed := int64(0)
			defer func() {
				span.SetInt("claimed", claimed)
				span.End()
			}()
			for {
				if wctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				claimed++
				call(wctx, w, i)
			}
		}(w)
	}
	wg.Wait()
	return searchErr(ctx, errs)
}

// callGuarded is fn(ctx, w, i) with an *intmat.OverflowError panic
// returned as its error.
func callGuarded(fn func(ctx context.Context, w, i int) error, ctx context.Context, w, i int) (err error) {
	defer intmat.Guard(&err)
	return fn(ctx, w, i)
}

// searchErr is the error of a candidate loop whose calls failed with
// errs: the first real error, since the cancellations after it are its
// consequence; else ctx's error; else any cancellation left over.
func searchErr(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evaluateSpaceMapping checks validity and conflict-freeness of [S; Π]
// and computes the Problem 6.1 metrics. The analyzer's Decide subsumes
// the rank(T) = k test (ErrRank when Π lies in the row space of S),
// which rejects S like a conflict does; any other decision error is
// returned, to fail the search.
func evaluateSpaceMapping(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector, opts *SpaceOptions) (*SpaceResult, bool, error) {
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		return nil, false, nil
	}
	res, err := analyzer.Decide(pi)
	if err != nil && !errors.Is(err, conflict.ErrRank) {
		return nil, false, err
	}
	if err != nil || !res.ConflictFree {
		return nil, false, nil
	}
	m := &Mapping{Algo: algo, S: s.Clone(), Pi: pi.Clone(), T: s.AppendRow(pi)}
	if opts.Schedule.Machine != nil {
		if _, err := opts.Schedule.Machine.Decompose(s, algo.D, pi); err != nil {
			return nil, false, nil
		}
	}
	procs := countProcessorImages(s, algo.Set)
	wire := wireLength(s, algo.D)
	weight := wireWeightOrDefault(opts)
	return &SpaceResult{
		Mapping:    m,
		Processors: procs,
		WireLength: wire,
		Cost:       procs + weight*wire,
		Time:       TotalTime(pi, algo.Set),
	}, true, nil
}

// wireLength returns Σ_i ‖S·d̄_i‖₁, without materializing S·D.
func wireLength(s *intmat.Matrix, d *intmat.Matrix) int64 {
	var total int64
	for c := 0; c < d.Cols(); c++ {
		for r := 0; r < s.Rows(); r++ {
			var x int64
			for i := 0; i < s.Cols(); i++ {
				x = intmat.AddChecked(x, intmat.MulChecked(s.At(r, i), d.At(i, c)))
			}
			total = intmat.AddChecked(total, intmat.AbsChecked(x))
		}
	}
	return total
}

// axisAutomorphisms returns the non-identity coordinate permutations σ
// (encoded as p with (σv)_i = v_{p[i]}) under which the algorithm is
// invariant: μ_{p[i]} = μ_i for all i and the multiset of dependence
// columns of D maps onto itself. When pi is non-nil (Problem 6.1's
// fixed schedule) Π must additionally be invariant. Applying such a σ
// to a space mapping relabels the index space by an isomorphism, so
// every mapping in the resulting orbit shares its time, processor
// count, wire length — and hence its search metrics — exactly.
func axisAutomorphisms(algo *uda.Algorithm, pi intmat.Vector) [][]int {
	n := algo.Dim()
	mu := algo.Set.Upper
	cols := make([]intmat.Vector, algo.NumDeps())
	colCount := make(map[string]int, len(cols))
	for i := range cols {
		cols[i] = algo.D.Col(i)
		colCount[cols[i].String()]++
	}
	var perms [][]int
	p := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			identity := true
			for j, v := range p {
				if v != j {
					identity = false
					break
				}
			}
			if identity {
				return
			}
			cnt := make(map[string]int, len(colCount))
			pc := make(intmat.Vector, n)
			for _, c := range cols {
				for j := 0; j < n; j++ {
					pc[j] = c[p[j]]
				}
				cnt[pc.String()]++
			}
			for k, v := range colCount {
				if cnt[k] != v {
					return
				}
			}
			perms = append(perms, append([]int(nil), p...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || mu[v] != mu[i] {
				continue
			}
			if pi != nil && pi[v] != pi[i] {
				continue
			}
			used[v] = true
			p[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return perms
}

// symmetryPruned marks every candidate that is not the
// lexicographically least member of its automorphism orbit. The
// enumeration emits candidates in lexicographic matrix order
// (canonical rows ascending), each orbit image is itself an enumerated
// candidate (permuting coordinates of canonical rows and
// re-canonicalizing stays within the row set, preserves rank and
// distinctness), and orbit members share all search metrics — so
// keeping only the least member preserves the (metric, enumeration
// index) winner exactly.
func symmetryPruned(cands []*intmat.Matrix, perms [][]int) []bool {
	pruned := make([]bool, len(cands))
	if len(perms) == 0 {
		return pruned
	}
	for ci, s := range cands {
		rows := make([]intmat.Vector, s.Rows())
		for r := range rows {
			rows[r] = s.Row(r)
		}
		for _, p := range perms {
			img := make([]intmat.Vector, len(rows))
			for r, row := range rows {
				pr := make(intmat.Vector, len(row))
				for j := range pr {
					pr[j] = row[p[j]]
				}
				if fz := pr.FirstNonZero(); fz >= 0 && pr[fz] < 0 {
					for j := range pr {
						pr[j] = -pr[j]
					}
				}
				img[r] = pr
			}
			slices.SortFunc(img, slices.Compare[intmat.Vector])
			if slices.CompareFunc(img, rows, slices.Compare[intmat.Vector]) < 0 {
				pruned[ci] = true
				break
			}
		}
	}
	return pruned
}

// collectSpaceMappings materializes the canonical candidate list in
// enumeration (lexicographic) order, so the parallel search can index
// candidates stably.
func collectSpaceMappings(n, rows int, maxEntry int64) ([]*intmat.Matrix, error) {
	var out []*intmat.Matrix
	err := enumerateSpaceMappings(n, rows, maxEntry, func(s *intmat.Matrix) bool {
		out = append(out, s.Clone())
		return true
	})
	return out, err
}

// enumerateSpaceMappings visits every (rows×n) integer matrix with
// entries in [−maxEntry, maxEntry], full row rank, and rows in
// canonical orientation and order: each row's first non-zero entry is
// positive (negating a row merely relabels array coordinates) and rows
// appear in a fixed generation order without repetition (reordering
// rows merely relabels axes), so each geometric array is visited once.
// The visitor returns false to stop early.
func enumerateSpaceMappings(n, rows int, maxEntry int64, visit func(*intmat.Matrix) bool) error {
	if rows < 1 {
		return fmt.Errorf("schedule: need at least one space row")
	}
	// Generate canonical rows once.
	var rowSet []intmat.Vector
	var gen func(i int, v intmat.Vector)
	gen = func(i int, v intmat.Vector) {
		if i == n {
			if fz := v.FirstNonZero(); fz >= 0 && v[fz] > 0 {
				rowSet = append(rowSet, v.Clone())
			}
			return
		}
		for e := -maxEntry; e <= maxEntry; e++ {
			v[i] = e
			gen(i+1, v)
		}
		v[i] = 0
	}
	gen(0, make(intmat.Vector, n))

	s := intmat.New(rows, n)
	var rec func(r, start int) bool
	rec = func(r, start int) bool {
		if r == rows {
			if s.Rank() != rows {
				return true
			}
			return visit(s)
		}
		for c := start; c < len(rowSet); c++ {
			s.SetRow(r, rowSet[c])
			if !rec(r+1, c+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
	return nil
}
