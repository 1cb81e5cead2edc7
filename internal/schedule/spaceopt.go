package schedule

import (
	"context"
	"errors"
	"fmt"
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
// Problem 6.1 tests its candidates one after another on the calling
// goroutine: one test takes microseconds, and splitting them across
// goroutines lost more to waking them than it saved (EXPERIMENTS.md).
// Problem 6.2 walks the schedule levels once for every candidate (see
// levelWalk and DESIGN.md, "Joint search engine"), splitting each
// level's S across Schedule.Workers goroutines. Both prune with two
// exact rules: axis-symmetry orbits keep only their lexicographically
// least member, and a processor-count lower bound rejects candidates
// that cannot beat the best cost found. The joint search preserves the
// sequential winner, so its results are identical at any worker count.

// SpaceOptions configures FindSpaceMapping and FindJointMapping.
type SpaceOptions struct {
	// MaxEntry bounds |s_ij| in the search (default 1).
	MaxEntry int64
	// WireWeight scales the wire-length term of the cost (default 1).
	WireWeight int64
	// Schedule options applied to the Π search (joint problem only);
	// the Machine and RequireSingleHop options also apply to Problem
	// 6.1. The Workers field splits the S the joint walk tests within
	// each level (every count stays the same at any worker count);
	// Problem 6.1 ignores it.
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
	// bound: the bound is counted after the fact, as the S whose bound
	// exceeds the winner's cost, so the joint search's Pruned is the
	// same at any worker count.
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
// realizability, and single-hop transfers under RequireSingleHop, when
// configured), it returns the one minimizing |S(J)| +
// WireWeight·Σ‖S·d̄_i‖₁, breaking ties lexicographically. The search
// runs on the calling goroutine.
func FindSpaceMapping(algo *uda.Algorithm, pi intmat.Vector, arrayDims int, opts *SpaceOptions) (*SpaceResult, error) {
	return FindSpaceMappingContext(context.Background(), algo, pi, arrayDims, opts)
}

// FindSpaceMappingContext is FindSpaceMapping with cancellation: a done
// context stops the candidate loop promptly and the context's error is
// returned (an interrupted search proves nothing about feasibility). An
// int64 overflow, such as in Π·d̄ for huge dependence entries, is
// returned as an *intmat.OverflowError.
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
	// covers the TotalTime of every candidate.
	if _, err := TotalTimeChecked(pi, algo.Set); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, "space-search")
	defer span.End()
	span.SetInt("dims", int64(arrayDims))
	startAt := time.Now()
	stats := &SearchStats{}
	cands, err := collectCandidates(ctx, algo, arrayDims, maxEntryOrDefault(opts), opts.NoPrune, pi, stats)
	if err != nil {
		return nil, err
	}
	cands.price(algo)
	collectDur := time.Since(startAt)
	searchAt := time.Now()
	best, err := cheapestSpaceMapping(ctx, algo, cands, pi, opts, stats)
	if err != nil {
		return nil, fmt.Errorf("schedule: space search: %w", err)
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no conflict-free space mapping with |entries| ≤ %d for Π = %v",
			ErrNoSchedule, maxEntryOrDefault(opts), pi)
	}
	if !opts.NoPrune {
		// Counted after the loop, as the joint search does: the live
		// candidates whose bound exceeds the winner's cost.
		weight := wireWeightOrDefault(opts)
		for i, pruned := range cands.pruned {
			if !pruned && cands.lowerBound(i)+weight*cands.wire(i, algo.D) > best.Cost {
				stats.PrunedLowerBound++
			}
		}
	}
	best.Candidates = cands.len()
	best.Pruned = int(stats.PrunedOrbit + stats.PrunedLowerBound)
	best.Stats = stats.finish("space-6.1", 1, collectDur, time.Since(searchAt), time.Since(startAt))
	best.Stats.annotateSpan(span)
	best.Trace = trace.SummaryFromContext(ctx)
	return best, nil
}

// effectiveWorkers is the number of goroutines a level walk of count S
// runs on when asked for workers.
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
	stats := &SearchStats{}
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
			stats.PrunedOrbit++
			continue
		}
		wire := cands.wire(i, algo.D)
		j.add(cands.analyzer(i, algo.Set), wire, cands.lowerBound(i)+weight*wire)
	}
	stats.InnerSearches += int64(len(j.live))
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
	r := winner.joint(winner.res.Mapping, winner.res)
	best := &r
	if !opts.NoPrune {
		// The lower bound prunes the live S whose bound exceeds the
		// winner's cost, counted after the walk, so the count is the
		// same at any worker count.
		for i := range j.live {
			if j.live[i].lb > best.Cost {
				stats.PrunedLowerBound++
			}
		}
	}
	best.Candidates = cands.len()
	best.Pruned = int(stats.PrunedOrbit + stats.PrunedLowerBound)
	best.Stats = stats.finish("joint-6.2", effectiveWorkers(opts.Schedule.Workers, cands.len()),
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

// cheapestSpaceMapping evaluates the candidates in order and returns the
// first of least cost, nil when none is conflict-free. A candidate is
// skipped when its processor lower bound plus its exact wire term
// exceeds the best cost found: the best only decreases, so the strict >
// never skips one tying the final minimum. ctx is polled before each
// candidate; an int64 overflow is returned as an *intmat.OverflowError.
func cheapestSpaceMapping(ctx context.Context, algo *uda.Algorithm, cands *candidates, pi intmat.Vector, opts *SpaceOptions, stats *SearchStats) (best *SpaceResult, err error) {
	defer intmat.Guard(&err)
	weight := wireWeightOrDefault(opts)
	for i, pruned := range cands.pruned {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if pruned {
			stats.PrunedOrbit++
			continue
		}
		if best != nil && !opts.NoPrune && cands.lowerBound(i)+weight*cands.wire(i, algo.D) > best.Cost {
			continue
		}
		r, err := evaluateSpaceMapping(algo, cands, i, pi, opts)
		if err != nil {
			return nil, err
		}
		if r != nil && (best == nil || r.Cost < best.Cost) {
			best = r
		}
	}
	return best, nil
}

// evaluateSpaceMapping checks validity and conflict-freeness of [S; Π]
// for candidate i and computes the Problem 6.1 metrics; it returns nil
// when the candidate fails a test of Procedure 5.1's step 5. The
// analyzer's Decide subsumes the rank(T) = k test (ErrRank when Π lies
// in the row space of S), which rejects S like a conflict does; any
// other decision error is returned, to fail the search.
func evaluateSpaceMapping(algo *uda.Algorithm, cands *candidates, i int, pi intmat.Vector, opts *SpaceOptions) (*SpaceResult, error) {
	analyzer := cands.analyzer(i, algo.Set)
	s := analyzer.S
	res, err := analyzer.Decide(pi)
	if err != nil && !errors.Is(err, conflict.ErrRank) {
		return nil, err
	}
	if err != nil || !res.ConflictFree {
		return nil, nil
	}
	if _, ok := realize(&opts.Schedule, s, algo.D, pi); !ok {
		return nil, nil
	}
	procs := countProcessorImages(s, algo.Set)
	wire := cands.wire(i, algo.D)
	return &SpaceResult{
		Mapping:    ownedMapping(algo, s, pi),
		Processors: procs,
		WireLength: wire,
		Cost:       procs + wireWeightOrDefault(opts)*wire,
		Time:       TotalTime(pi, algo.Set),
	}, nil
}
