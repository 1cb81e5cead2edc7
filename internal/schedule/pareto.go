package schedule

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/trace"
	"lodim/internal/uda"
)

// This file generalizes the single-objective Problem 6.2 search into a
// multi-objective search over four array-cost axes, maintaining a
// deterministic Pareto archive instead of a scalar incumbent. The
// paper optimizes total time alone; the archive records every
// non-dominated trade-off between time and the array resources the
// Section 6 problems care about, so a caller can pick by lexicographic
// priority or a weighted scalarization *after* the (single) search.
//
// Determinism contract: the front — membership, representatives, and
// order — and the effort counters are a pure function of the problem,
// independent of Schedule.Workers. One level walk serves every space
// mapping S (levelWalk); workers split the S of a level, each S sees its
// passers in walk order whoever tests it, and the archive is filled on
// the walking goroutine between levels. Ties between members with
// equal objective vectors keep the member least under the pinned total
// order below.

// Objective indexes one axis of an ObjectiveVector.
type Objective int

const (
	// ObjTime is the total execution time 1 + Σ|π_i|·μ_i.
	ObjTime Objective = iota
	// ObjProcessors is |S(J)|, the number of array cells used.
	ObjProcessors
	// ObjBuffers is Σ_i (Π·d̄_i − 1): dependence i is alive for Π·d̄_i
	// time steps, so every unit above one buffers a value in flight.
	ObjBuffers
	// ObjLinks is the number of distinct non-zero columns of S·D — the
	// physical link classes the array must wire between cells.
	ObjLinks
	// NumObjectives is the number of axes.
	NumObjectives
)

var objectiveNames = [NumObjectives]string{"time", "processors", "buffers", "links"}

func (o Objective) String() string {
	if o >= 0 && o < NumObjectives {
		return objectiveNames[o]
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// ParseObjective resolves an axis name ("time", "processors",
// "buffers", "links") to its Objective index.
func ParseObjective(name string) (Objective, error) {
	for i, n := range objectiveNames {
		if n == name {
			return Objective(i), nil
		}
	}
	return 0, fmt.Errorf("schedule: unknown objective %q (want time|processors|buffers|links)", name)
}

// ObjectiveVector is one point in objective space, indexed by
// Objective. Smaller is better on every axis.
type ObjectiveVector [NumObjectives]int64

func (v ObjectiveVector) String() string {
	return fmt.Sprintf("(t=%d, p=%d, b=%d, l=%d)", v[ObjTime], v[ObjProcessors], v[ObjBuffers], v[ObjLinks])
}

// Dominates reports whether a is at least as good as b on every axis
// and strictly better on at least one (the strict Pareto order; equal
// vectors do not dominate each other).
func Dominates(a, b ObjectiveVector) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// ParetoMember is one front element: a full mapping plus its
// objective vector.
type ParetoMember struct {
	Mapping *Mapping
	Vector  ObjectiveVector
}

// memberLess is the pinned total tie-order of the archive: objective
// vector lexicographically (time, processors, buffers, links), then
// the Π key, then the S rows — all semantic keys, so the order is
// independent of enumeration indices and worker scheduling.
func memberLess(a, b *ParetoMember) bool {
	if c := slices.Compare(a.Vector[:], b.Vector[:]); c != 0 {
		return c < 0
	}
	return mappingLess(a.Mapping, b.Mapping)
}

// mappingLess orders mappings by the lexicographic Π key, then the
// lexicographic S rows.
func mappingLess(a, b *Mapping) bool {
	if c := slices.Compare(a.Pi, b.Pi); c != 0 {
		return c < 0
	}
	for r := range a.S.Rows() {
		if c := slices.Compare(a.S.Row(r), b.S.Row(r)); c != 0 {
			return c < 0
		}
	}
	return false
}

// Archive is a deterministic Pareto archive: it retains exactly the
// non-dominated objective vectors among everything inserted, with one
// representative per distinct vector — the least under memberLess.
// The final front is therefore independent of insertion order.
type Archive struct {
	members []ParetoMember
}

// Insert offers a member. It reports whether the member is retained
// (false: dominated by, or tied with and not less than, an existing
// member). Existing members dominated by m are evicted.
func (a *Archive) Insert(m ParetoMember) bool {
	for i := range a.members {
		if a.members[i].Vector == m.Vector {
			if memberLess(&m, &a.members[i]) {
				a.members[i] = m
				return true
			}
			return false
		}
		if Dominates(a.members[i].Vector, m.Vector) {
			return false
		}
	}
	kept := a.members[:0]
	for i := range a.members {
		if !Dominates(m.Vector, a.members[i].Vector) {
			kept = append(kept, a.members[i])
		}
	}
	a.members = append(kept, m)
	return true
}

// Len returns the current archive size.
func (a *Archive) Len() int { return len(a.members) }

// Front returns the archived members sorted by the pinned total
// order. The returned slice is freshly allocated.
func (a *Archive) Front() []ParetoMember {
	out := append([]ParetoMember(nil), a.members...)
	sort.Slice(out, func(i, j int) bool { return memberLess(&out[i], &out[j]) })
	return out
}

// ParetoMode selects how a single "best" member is picked from the
// front. The front itself is identical in every mode.
type ParetoMode int

const (
	// ModeFront returns the front with Best at its pinned-order head.
	ModeFront ParetoMode = iota
	// ModeLex picks the lexicographic minimum under LexOrder.
	ModeLex
	// ModeWeighted picks the minimum of Σ Weights[k]·Vector[k].
	ModeWeighted
)

// ParetoOptions configures FindPareto.
type ParetoOptions struct {
	// Space carries the single-objective search knobs that still
	// apply: MaxEntry, NoPrune, and Schedule (Workers, MaxCost,
	// Machine, RequireSingleHop). WireWeight is ignored — the link
	// axis replaces the scalarized wire term.
	Space SpaceOptions
	// TimeSlack widens the explored time window: schedules with total
	// time up to (optimal time + TimeSlack) enter the archive. 0 keeps
	// only time-optimal members, so the front trades processors,
	// buffers, and links at the paper's optimum time.
	TimeSlack int64
	// Mode selects the Best member (see ParetoMode).
	Mode ParetoMode
	// LexOrder is the axis priority for ModeLex; omitted axes follow
	// in canonical order (time, processors, buffers, links).
	LexOrder []Objective
	// Weights are the per-axis scalarization weights for ModeWeighted
	// (each ≥ 0, not all zero).
	Weights [NumObjectives]int64
}

// ParetoResult is the outcome of a multi-objective search.
type ParetoResult struct {
	// Front is the certified candidate set: all non-dominated
	// objective vectors with total time within the explored window,
	// in pinned order.
	Front []ParetoMember
	// Best indexes the front member selected by the requested mode.
	Best int
	// TimeBound is the inclusive total-time ceiling of the window
	// (optimal time + TimeSlack, clamped by MaxCost).
	TimeBound int64
	// Candidates / Pruned mirror the joint search counters.
	Candidates int
	Pruned     int
	Stats      *SearchStats
	Trace      *trace.Summary
}

// FindPareto runs the multi-objective joint search over space
// mappings S (entries bounded by MaxEntry) and schedules Π, returning
// the Pareto front over (time, processors, buffers, links).
func FindPareto(algo *uda.Algorithm, arrayDims int, opts *ParetoOptions) (*ParetoResult, error) {
	return FindParetoContext(context.Background(), algo, arrayDims, opts)
}

// FindParetoContext is FindPareto with cancellation: the level walk
// polls ctx as the joint search's does, and an ended context returns
// its error. The front and the effort counters are identical at any
// Schedule.Workers count; see the determinism contract at the top of
// this file. An int64 overflow anywhere in the search is returned as an
// error.
func FindParetoContext(ctx context.Context, algo *uda.Algorithm, arrayDims int, opts *ParetoOptions) (_ *ParetoResult, err error) {
	defer intmat.Guard(&err)
	if opts == nil {
		opts = &ParetoOptions{}
	}
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	if arrayDims < 1 || arrayDims >= algo.Dim() {
		return nil, fmt.Errorf("schedule: array dimensionality %d out of range [1, n-1]", arrayDims)
	}
	if opts.TimeSlack < 0 {
		return nil, fmt.Errorf("schedule: negative TimeSlack %d", opts.TimeSlack)
	}
	if err := validateSelection(opts); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, "pareto-search")
	defer span.End()
	span.SetInt("dims", int64(arrayDims))
	startAt := time.Now()
	stats := &statsCollector{}
	// Orbit pruning is Pareto-exact: an axis automorphism maps every
	// feasible (S, Π) of a candidate to a feasible pair of its orbit
	// representative with the identical objective vector (μ-invariance
	// fixes time and buffers, the index-space isomorphism fixes |S(J)|,
	// and uniform row relabeling of S·D preserves column distinctness,
	// fixing links).
	cands, err := collectCandidates(ctx, algo, arrayDims, maxEntryOrDefault(&opts.Space), opts.Space.NoPrune, nil, stats)
	if err != nil {
		return nil, err
	}
	collectDur := time.Since(startAt)
	searchAt := time.Now()
	// One level walk for every live S, from level 1: Pareto ignores
	// MinCost and closes no S by a cost bound.
	j := getLevelWalk(algo, &opts.Space, stats, cands.len())
	defer j.release()
	j.pareto, j.prune, j.opts.MinCost = true, false, 0
	links := make([]int64, 0, cands.len())
	for i, pruned := range cands.pruned {
		if pruned {
			stats.prunedOrbit.Add(1)
			continue
		}
		analyzer, err := cands.analyzer(i, algo.Set)
		if err != nil {
			return nil, fmt.Errorf("schedule: pareto search: %w", err)
		}
		j.add(analyzer, 0, 0, conflict.GetMemo())
		links = append(links, linkCount(analyzer.S, algo.D))
	}
	stats.innerSearches.Add(int64(len(j.live)))
	// Time strictly increases with the level, and processors and links
	// are fixed by S, so an S's pick enters the archive only when its
	// buffers improve on the S's lower levels (try): anything else is
	// dominated within S. The first level with a pick is the optimum
	// cost, and the walk ends TimeSlack levels above it, so every pick
	// lies in the window.
	var arch Archive
	optCost, bound := int64(-1), maxCostOr(opts.Space.Schedule.MaxCost, algo.Set)
	before := int64(0) // the passers visited below the level
	err = j.levels(ctx, opts.Space.Schedule.Workers, func(cost int64) bool {
		for i := range j.live {
			js := &j.live[i]
			if js.res == nil || js.ord < before {
				continue
			}
			if optCost < 0 {
				optCost = cost
				if cost+opts.TimeSlack < bound {
					bound = cost + opts.TimeSlack
				}
			}
			arch.Insert(ParetoMember{Mapping: js.res.Mapping, Vector: ObjectiveVector{
				ObjTime:       1 + cost,
				ObjProcessors: js.procs,
				ObjBuffers:    js.buf,
				ObjLinks:      links[i],
			}})
		}
		before = j.seen
		return cost < bound
	})
	if err != nil {
		return nil, fmt.Errorf("schedule: pareto search: %w", err)
	}
	if optCost < 0 {
		if j.seen == 0 {
			return nil, fmt.Errorf("%w: no Π with ΠD > 0 and Σ|π_i|·μ_i ≤ %d", ErrNoSchedule, bound)
		}
		return nil, fmt.Errorf("%w: no conflict-free joint mapping with |entries| ≤ %d",
			ErrNoSchedule, maxEntryOrDefault(&opts.Space))
	}
	front := arch.Front()
	res := &ParetoResult{
		Front:      front,
		Best:       selectBest(front, opts),
		TimeBound:  1 + bound,
		Candidates: cands.len(),
		Pruned:     int(stats.prunedOrbit.Load()),
	}
	if opts.Space.Schedule.SelfCheck {
		for i := range front {
			if err := runSelfCheck(front[i].Mapping); err != nil {
				return nil, err
			}
		}
	}
	res.Stats = stats.snapshot("pareto-front", effectiveWorkers(opts.Space.Schedule.Workers, cands.len()),
		collectDur, time.Since(searchAt), time.Since(startAt))
	res.Stats.annotateSpan(span)
	res.Trace = trace.SummaryFromContext(ctx)
	return res, nil
}

// bufferDepth is Σ_i (Π·d̄_i − 1) over the cached dependence columns.
// Every term is ≥ 0 for a valid Π (ΠD > 0 integral means Π·d̄_i ≥ 1).
func bufferDepth(pi intmat.Vector, depCols []intmat.Vector) int64 {
	var total int64
	for _, d := range depCols {
		total += pi.Dot(d) - 1
	}
	return total
}

// linkCount returns the number of distinct non-zero columns of S·D:
// dependences routed identically share a link class; a zero column is
// cell-local and needs no wire.
func linkCount(s *intmat.Matrix, d *intmat.Matrix) int64 {
	sd := s.Mul(d)
	seen := make(map[string]struct{}, sd.Cols())
	for i := 0; i < sd.Cols(); i++ {
		col := sd.Col(i)
		if col.FirstNonZero() < 0 {
			continue
		}
		seen[col.String()] = struct{}{}
	}
	return int64(len(seen))
}

// ValidateSelection checks the mode-specific selection knobs (Mode,
// LexOrder, Weights) without running a search — the service layer uses
// it to reject a bad request before paying for anything.
func (o *ParetoOptions) ValidateSelection() error { return validateSelection(o) }

// SelectBest picks the front index the selection options choose. The
// front must be non-empty and in pinned order (as FindPareto returns
// it); selection reads only the objective vectors, so a caller holding
// a cached front can re-select under a different mode without
// re-searching.
func SelectBest(front []ParetoMember, opts *ParetoOptions) (int, error) {
	if opts == nil {
		opts = &ParetoOptions{}
	}
	if err := validateSelection(opts); err != nil {
		return 0, err
	}
	if len(front) == 0 {
		return 0, errors.New("schedule: cannot select from an empty front")
	}
	return selectBest(front, opts), nil
}

// validateSelection checks the mode-specific knobs up front so a bad
// request fails before the search runs.
func validateSelection(opts *ParetoOptions) error {
	switch opts.Mode {
	case ModeFront:
		return nil
	case ModeLex:
		seen := [NumObjectives]bool{}
		for _, o := range opts.LexOrder {
			if o < 0 || o >= NumObjectives {
				return fmt.Errorf("schedule: lex order references unknown objective %d", int(o))
			}
			if seen[o] {
				return fmt.Errorf("schedule: lex order repeats objective %v", o)
			}
			seen[o] = true
		}
		return nil
	case ModeWeighted:
		any := false
		for i, w := range opts.Weights {
			if w < 0 {
				return fmt.Errorf("schedule: negative weight %d for objective %v", w, Objective(i))
			}
			if w > 0 {
				any = true
			}
		}
		if !any {
			return errors.New("schedule: weighted mode needs at least one positive weight")
		}
		return nil
	default:
		return fmt.Errorf("schedule: unknown pareto mode %d", int(opts.Mode))
	}
}

// selectBest picks the front index for the requested mode. The lex
// and weighted optima are always on the front (a dominating vector
// would be lex-smaller / weigh no more), so selection never needs the
// discarded interior; ties fall back to the pinned front order, whose
// head is the first encountered.
func selectBest(front []ParetoMember, opts *ParetoOptions) int {
	switch opts.Mode {
	case ModeLex:
		order := fullLexOrder(opts.LexOrder)
		best := 0
		for i := 1; i < len(front); i++ {
			if lexVecLess(front[i].Vector, front[best].Vector, order) {
				best = i
			}
		}
		return best
	case ModeWeighted:
		best, bestScore := 0, weightedScore(front[0].Vector, opts.Weights)
		for i := 1; i < len(front); i++ {
			if s := weightedScore(front[i].Vector, opts.Weights); s < bestScore {
				best, bestScore = i, s
			}
		}
		return best
	default:
		return 0
	}
}

// fullLexOrder completes a partial axis priority with the remaining
// axes in canonical order.
func fullLexOrder(prefix []Objective) []Objective {
	order := make([]Objective, 0, NumObjectives)
	seen := [NumObjectives]bool{}
	for _, o := range prefix {
		order = append(order, o)
		seen[o] = true
	}
	for o := Objective(0); o < NumObjectives; o++ {
		if !seen[o] {
			order = append(order, o)
		}
	}
	return order
}

func lexVecLess(a, b ObjectiveVector, order []Objective) bool {
	for _, o := range order {
		if a[o] != b[o] {
			return a[o] < b[o]
		}
	}
	return false
}

func weightedScore(v ObjectiveVector, w [NumObjectives]int64) int64 {
	var s int64
	for i := range v {
		s += w[i] * v[i]
	}
	return s
}
