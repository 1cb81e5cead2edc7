package schedule

import (
	"fmt"
	"time"

	"lodim/internal/conflict"
	"lodim/internal/trace"
)

// SearchStats reports, in structured form, where a search spent its
// effort: how many candidates each pruning rule removed before the
// expensive conflict analysis ran, how many survived to be evaluated,
// and the wall time of each phase. It is the per-run analogue of the
// effort metric Result.Candidates, attached to Result.Stats and to
// SpaceResult.Stats, and is the unit the service's Prometheus pruning
// counters aggregate over.
//
// A search writes its counters on its calling goroutine: the level
// walk's helper goroutines only count into their conflict scratches,
// which the walk drains after the helpers have finished.
type SearchStats struct {
	// Engine names the search that produced the stats:
	// "procedure-5.1", "space-6.1", "joint-6.2" or "pareto-front".
	Engine string `json:"engine"`
	// Workers is the effective parallelism of the candidate loop.
	Workers int `json:"workers"`

	// SpaceCandidates counts space mappings S enumerated by the
	// Problem 6.1/6.2 searches (zero for pure Procedure 5.1 runs).
	SpaceCandidates int64 `json:"space_candidates,omitempty"`
	// PrunedOrbit counts candidates removed by the axis-symmetry
	// orbit rule before any evaluation.
	PrunedOrbit int64 `json:"pruned_orbit,omitempty"`
	// PrunedLowerBound counts the live candidates whose processor/cost
	// lower bound exceeds the winner's cost ("joint-6.2", "space-6.1"),
	// counted after the search, so it is the same at any worker count.
	PrunedLowerBound int64 `json:"pruned_lower_bound,omitempty"`
	// PrunedIncumbent is 0: no engine has an incumbent-time cut since
	// the joint search walks each level once. The field stays for the
	// readers of the stats' JSON and metrics.
	PrunedIncumbent int64 `json:"pruned_incumbent,omitempty"`
	// InnerSearches counts the space mappings whose schedules were
	// searched: for "joint-6.2" and "pareto-front" the live S (every
	// candidate but the orbit-pruned ones), each tested in the one level
	// walk.
	InnerSearches int64 `json:"inner_searches,omitempty"`

	// ScheduleCandidates counts the schedule vectors the level walks
	// visited: the Π passing ΠD ≥ 1, handed on to the conflict
	// decisions of the open S (the walker skips every other Π unseen).
	// It is Result.Candidates for a pure schedule search, and the one
	// walk's passers for "joint-6.2" and "pareto-front" (with several S,
	// a chunk of passers is visited before any S tests it, so it may
	// exceed the winner's count).
	ScheduleCandidates int64 `json:"schedule_candidates"`
	// CostLevels counts objective levels f = Σ|π_i|μ_i walked, each
	// once: for "pareto-front" from level 1 up to the end of its time
	// window, or to the level where its last S closes.
	CostLevels int64 `json:"cost_levels"`

	// ConflictTable counts conflict decisions answered by the
	// conflict-vector table: the candidate annihilated one of the
	// space mapping's in-box null vectors, so it has a conflict and no
	// Hermite reduction ran.
	ConflictTable int64 `json:"conflict_table,omitempty"`
	// HNFIncremental counts conflict decisions answered incrementally —
	// the candidate's h = Π·W line matched a decomposition already held
	// by the decision memo of its S, so no new Hermite reduction ran.
	HNFIncremental int64 `json:"hnf_incremental,omitempty"`
	// HNFFromScratch counts conflict decisions that ran a fresh
	// decomposition.
	HNFFromScratch int64 `json:"hnf_from_scratch,omitempty"`

	// Collect is the wall time spent enumerating/collecting candidate
	// space mappings (zero for pure schedule searches); Search is the
	// wall time of the candidate evaluation loop; Total spans the whole
	// engine call.
	Collect time.Duration `json:"collect_ns,omitempty"`
	Search  time.Duration `json:"search_ns"`
	Total   time.Duration `json:"total_ns"`
}

// Pruned returns the total number of candidates removed by all three
// pruning rules.
func (s *SearchStats) Pruned() int64 {
	return s.PrunedOrbit + s.PrunedLowerBound + s.PrunedIncumbent
}

// String renders a one-line human-readable summary, used by
// mapfind -stats.
func (s *SearchStats) String() string {
	if s == nil {
		return "<no stats>"
	}
	out := fmt.Sprintf("engine=%s workers=%d", s.Engine, s.Workers)
	if s.SpaceCandidates > 0 {
		out += fmt.Sprintf(" space=%d pruned(orbit=%d lb=%d incumbent=%d) inner=%d",
			s.SpaceCandidates, s.PrunedOrbit, s.PrunedLowerBound, s.PrunedIncumbent, s.InnerSearches)
	}
	out += fmt.Sprintf(" sched=%d levels=%d", s.ScheduleCandidates, s.CostLevels)
	if s.ConflictTable > 0 {
		out += fmt.Sprintf(" conflict_table=%d", s.ConflictTable)
	}
	if s.HNFIncremental > 0 || s.HNFFromScratch > 0 {
		out += fmt.Sprintf(" hnf(incremental=%d scratch=%d)", s.HNFIncremental, s.HNFFromScratch)
	}
	if s.Collect > 0 {
		out += fmt.Sprintf(" collect=%s", s.Collect.Round(time.Microsecond))
	}
	out += fmt.Sprintf(" search=%s total=%s",
		s.Search.Round(time.Microsecond), s.Total.Round(time.Microsecond))
	return out
}

// annotateSpan attaches the stats' counters to a search span, so the
// trace inspector shows where the spanned search spent its effort
// without a separate stats lookup. No-op on a nil span.
func (s *SearchStats) annotateSpan(span *trace.Span) {
	if s == nil || span == nil {
		return
	}
	span.SetStr("engine", s.Engine)
	span.SetInt("workers", int64(s.Workers))
	if s.SpaceCandidates > 0 {
		span.SetInt("space_candidates", s.SpaceCandidates)
		span.SetInt("pruned_orbit", s.PrunedOrbit)
		span.SetInt("pruned_lower_bound", s.PrunedLowerBound)
		span.SetInt("pruned_incumbent", s.PrunedIncumbent)
		span.SetInt("inner_searches", s.InnerSearches)
	}
	span.SetInt("schedule_candidates", s.ScheduleCandidates)
	span.SetInt("cost_levels", s.CostLevels)
	if s.ConflictTable > 0 {
		span.SetInt("conflict_table", s.ConflictTable)
	}
	if s.HNFIncremental > 0 || s.HNFFromScratch > 0 {
		span.SetInt("hnf_incremental", s.HNFIncremental)
		span.SetInt("hnf_from_scratch", s.HNFFromScratch)
	}
}

// finish records the identity and the wall times of a search in s and
// returns s.
func (s *SearchStats) finish(engine string, workers int, collect, search, total time.Duration) *SearchStats {
	s.Engine, s.Workers = engine, workers
	s.Collect, s.Search, s.Total = collect, search, total
	return s
}

// drainScratch folds the counters of the decisions a conflict scratch
// made into s.
func (s *SearchStats) drainScratch(sc *conflict.Scratch) {
	table, hits, misses := sc.TakeStats()
	s.ConflictTable += table
	s.HNFIncremental += hits
	s.HNFFromScratch += misses
}
