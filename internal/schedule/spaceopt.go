package schedule

import (
	"context"
	"errors"
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
// Problem 6.1 fans its candidates across Schedule.Workers goroutines;
// Problem 6.2 walks the schedule levels once for every candidate (see
// levelWalk and DESIGN.md, "Joint search engine"). Both prune with two
// exact rules: axis-symmetry orbits keep only their lexicographically
// least member, and a processor-count lower bound rejects candidates
// that cannot beat the best cost found. Both preserve the sequential
// winner, so results are identical at any worker count.

// SpaceOptions configures FindSpaceMapping and FindJointMapping.
type SpaceOptions struct {
	// MaxEntry bounds |s_ij| in the search (default 1).
	MaxEntry int64
	// WireWeight scales the wire-length term of the cost (default 1).
	WireWeight int64
	// Schedule options applied to the Π search (joint problem only);
	// the Machine option also applies to Problem 6.1. The Workers field
	// splits the space mappings in both problems: Problem 6.1's
	// candidates, and the S the joint walk tests within each level
	// (every count stays the same at any worker count).
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
	// Pruned counts space mappings rejected by symmetry or by cost lower
	// bound. The joint search counts, after the fact, the S whose bound
	// exceeds the winner's cost, the same at any worker count; in
	// Problem 6.1 at Workers > 1 the bound races the best cost found,
	// so Pruned may vary between runs. The winning mapping never does.
	Pruned int
	// Time is the total execution time (joint problem: of the winning
	// schedule; Problem 6.1: of the given Π).
	Time int64
	// Stats carries the structured search statistics: per-rule pruning
	// counts, schedule-search effort, and phase wall times (see
	// SearchStats for what each counts per engine).
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
	cands, err := collectCandidates(ctx, algo, arrayDims, maxEntryOrDefault(opts), opts.NoPrune, pi, stats)
	if err != nil {
		return nil, err
	}
	cands.price(algo)
	collectDur := time.Since(startAt)
	weight := wireWeightOrDefault(opts)
	results := make([]*SpaceResult, cands.len())
	var bestCost, prunedCount atomic.Int64
	bestCost.Store(math.MaxInt64)
	searchAt := time.Now()
	err = forEachCandidate(ctx, cands.len(), opts.Schedule.Workers, func(_ context.Context, i int) error {
		if cands.pruned[i] {
			prunedCount.Add(1)
			stats.prunedOrbit.Add(1)
			return nil
		}
		if !opts.NoPrune {
			// The candidate's cost is at least the processor lower
			// bound plus its exact wire term; the incumbent only
			// decreases, so a strict > here can never discard a
			// candidate tying the final minimum.
			lb := cands.lowerBound(i) + weight*cands.wire(i, algo.D)
			if lb > bestCost.Load() {
				prunedCount.Add(1)
				stats.prunedLowerBound.Add(1)
				return nil
			}
		}
		r, ok, err := evaluateSpaceMapping(algo, cands, i, pi, opts)
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
	best.Candidates = cands.len()
	best.Pruned = int(prunedCount.Load())
	if opts.Schedule.SelfCheck {
		if err := runSelfCheck(best.Mapping); err != nil {
			return nil, err
		}
	}
	best.Stats = stats.snapshot("space-6.1", effectiveWorkers(opts.Schedule.Workers, cands.len()),
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
// One level walk serves every candidate S (levelWalk): it stops at the
// first level where some S has a conflict-free Π, and selection is by
// the total order of jointLess (time, cost, processors, Π key, S rows)
// over the S settled there, so the winner is identical at any worker
// count and never depends on discovery order. ErrNoSchedule reports
// that no S has a schedule up to MaxCost.
func FindJointMapping(algo *uda.Algorithm, arrayDims int, opts *SpaceOptions) (*JointResult, error) {
	return FindJointMappingContext(context.Background(), algo, arrayDims, opts)
}

// FindJointMappingContext is FindJointMapping with cancellation: the
// level walk polls ctx every few hundred steps and between the S it
// tests, so a cancelled request stops burning workers promptly. When
// the context ends before the search completes, the context's error is
// returned (never ErrNoSchedule — an interrupted search proves nothing
// about feasibility). An int64 overflow, in the walk or in any S's
// conflict decisions, fails the whole search.
func FindJointMappingContext(ctx context.Context, algo *uda.Algorithm, arrayDims int, opts *SpaceOptions) (_ *JointResult, err error) {
	defer intmat.Guard(&err)
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
	cands, err := collectCandidates(ctx, algo, arrayDims, maxEntryOrDefault(opts), opts.NoPrune, nil, stats)
	if err != nil {
		return nil, err
	}
	cands.price(algo)
	collectDur := time.Since(startAt)
	searchAt := time.Now()
	j := getLevelWalk(algo, opts, stats, cands.len())
	defer j.release()
	weight := wireWeightOrDefault(opts)
	for i, pruned := range cands.pruned {
		if pruned {
			stats.prunedOrbit.Add(1)
			continue
		}
		analyzer, err := cands.analyzer(i, algo.Set)
		if err != nil {
			return nil, err
		}
		wire := cands.wire(i, algo.D)
		j.add(analyzer, wire, cands.lowerBound(i)+weight*wire, conflict.GetMemo())
	}
	stats.innerSearches.Add(int64(len(j.live)))
	wctx, walkSpan := trace.Start(ctx, "pi-search")
	winner, err := j.run(wctx, opts.Schedule.Workers)
	walkSpan.End()
	if err != nil {
		return nil, fmt.Errorf("schedule: joint search: %w", err)
	}
	if winner == nil {
		return nil, fmt.Errorf("%w: no conflict-free joint mapping with |entries| ≤ %d",
			ErrNoSchedule, maxEntryOrDefault(opts))
	}
	r := winner.joint()
	best := &r
	if !opts.NoPrune {
		// The lower bound prunes the live S whose bound exceeds the
		// winner's cost, counted after the walk, so the count is the
		// same at any worker count.
		for i := range j.live {
			if j.live[i].lb > best.Cost {
				stats.prunedLowerBound.Add(1)
			}
		}
	}
	best.Candidates = cands.len()
	best.Pruned = int(stats.prunedOrbit.Load() + stats.prunedLowerBound.Load())
	if opts.Schedule.SelfCheck {
		if err := runSelfCheck(best.Mapping); err != nil {
			return nil, err
		}
	}
	best.Stats = stats.snapshot("joint-6.2", effectiveWorkers(opts.Schedule.Workers, cands.len()),
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

// offerMin lowers v to x if x is smaller (atomic CAS loop).
func offerMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// forEachCandidate runs fn(ctx, i) for i in [0, count) on up to
// workers goroutines (sequentially when workers ≤ 1). fn must confine
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
// context, so per-candidate spans nest under it). The sequential path adds
// no span: its work already nests under the caller's phase span.
func forEachCandidate(ctx context.Context, count, workers int, fn func(ctx context.Context, i int) error) error {
	searchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, count)
	call := func(ctx context.Context, i int) {
		if err := callGuarded(fn, ctx, i); err != nil {
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
			call(searchCtx, i)
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
				call(wctx, i)
			}
		}(w)
	}
	wg.Wait()
	return searchErr(ctx, errs)
}

// callGuarded is fn(ctx, i) with an *intmat.OverflowError panic
// returned as its error.
func callGuarded(fn func(ctx context.Context, i int) error, ctx context.Context, i int) (err error) {
	defer intmat.Guard(&err)
	return fn(ctx, i)
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
// for candidate i and computes the Problem 6.1 metrics. The analyzer's
// Decide subsumes the rank(T) = k test (ErrRank when Π lies in the row
// space of S), which rejects S like a conflict does; any other decision
// error is returned, to fail the search.
func evaluateSpaceMapping(algo *uda.Algorithm, cands *candidates, i int, pi intmat.Vector, opts *SpaceOptions) (*SpaceResult, bool, error) {
	analyzer, err := cands.analyzer(i, algo.Set)
	if err != nil {
		return nil, false, nil
	}
	s := analyzer.S
	res, err := analyzer.Decide(pi)
	if err != nil && !errors.Is(err, conflict.ErrRank) {
		return nil, false, err
	}
	if err != nil || !res.ConflictFree {
		return nil, false, nil
	}
	m := &Mapping{Algo: algo, S: s, Pi: pi.Clone(), T: s.AppendRow(pi)}
	if opts.Schedule.Machine != nil {
		if _, err := opts.Schedule.Machine.Decompose(s, algo.D, pi); err != nil {
			return nil, false, nil
		}
	}
	procs := countProcessorImages(s, algo.Set)
	wire := cands.wire(i, algo.D)
	weight := wireWeightOrDefault(opts)
	return &SpaceResult{
		Mapping:    m,
		Processors: procs,
		WireLength: wire,
		Cost:       procs + weight*wire,
		Time:       TotalTime(pi, algo.Set),
	}, true, nil
}
