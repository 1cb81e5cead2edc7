package schedule

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// enumerate is the brute-force reference for piWalker: it visits every
// integer vector π with Σ|π_i|·μ_i exactly equal to cost, in
// lexicographic order (negative before positive at equal magnitude
// ordering is avoided by visiting values in increasing order
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

// refLevel is one objective level as enumerate sees it: the Π passing
// ΠD > 0 in enumeration order, their ordinals among all Π of the level,
// and the level's raw size.
type refLevel struct {
	pis  []string
	ords []int64
	raw  int64
}

func streamingLevel(algo *uda.Algorithm, cost int64) refLevel {
	var ref refLevel
	enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
		if Valid(pi, algo.D) {
			ref.pis = append(ref.pis, pi.String())
			ref.ords = append(ref.ords, ref.raw)
		}
		ref.raw++
		return true
	})
	return ref
}

// streamingFloor is the lowest level holding a Π with ΠD > 0, found by
// streaming enumerate; −1 when there is none up to maxCost.
func streamingFloor(algo *uda.Algorithm, maxCost int64) int64 {
	for cost := int64(1); cost <= maxCost; cost++ {
		if len(streamingLevel(algo, cost).pis) > 0 {
			return cost
		}
	}
	return -1
}

// walkedLevel is one level as the walker reports it.
func walkedLevel(t testing.TB, wk *piWalker, cost int64) refLevel {
	t.Helper()
	var got refLevel
	raw, err := wk.walk(context.Background(), cost, func(pi intmat.Vector, ord int64) bool {
		got.pis = append(got.pis, pi.String())
		got.ords = append(got.ords, ord)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	got.raw = raw
	return got
}

// checkWalker compares every level up to maxLevel of algo, walked twice
// (the second walk answers barren levels from memory) and once more with
// the levels past maxLevel/2 walked without tables, with enumerate, and
// the walker's first valid level with the streaming floor.
func checkWalker(t testing.TB, algo *uda.Algorithm, maxLevel int64) {
	t.Helper()
	wk := getWalker(algo)
	defer putWalker(wk)
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			wk.reset(algo)
			wk.tabCost = maxLevel / 2
		}
		for cost := int64(1); cost <= maxLevel; cost++ {
			got, want := walkedLevel(t, wk, cost), streamingLevel(algo, cost)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("μ=%v D=%v level %d pass %d:\n got %v\nwant %v", algo.Set.Upper, algo.D, cost, pass, got, want)
			}
		}
	}
	want := streamingFloor(algo, maxLevel)
	if got, err := getWalker(algo).firstValidLevel(context.Background(), maxLevel); err != nil || got != want {
		t.Fatalf("μ=%v D=%v: first valid level %d (%v), want %d", algo.Set.Upper, algo.D, got, err, want)
	}
}

// randomWalkAlgorithm draws μ ∈ [0, 3]^n (degenerate axes included) and D
// with entries in [−3, 3].
func randomWalkAlgorithm(rng *rand.Rand) *uda.Algorithm {
	n := 1 + rng.Intn(4)
	mu := make(intmat.Vector, n)
	for i := range mu {
		mu[i] = int64(rng.Intn(4))
	}
	d := intmat.New(n, 1+rng.Intn(3))
	for r := 0; r < n; r++ {
		for c := 0; c < d.Cols(); c++ {
			d.Set(r, c, int64(rng.Intn(7)-3))
		}
	}
	return &uda.Algorithm{Name: "random", Set: uda.IndexSet{Upper: mu}, D: d}
}

// TestWalkerMatchesEnumerate: every level the walker walks is enumerate
// filtered by ΠD > 0 — the same passers in the same order, with the
// same ordinals and raw size — on random μ and D; a walk stopped at
// passer k counts its ordinal + 1; a walk whose context ends mid-level
// returns the context's error.
func TestWalkerMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		checkWalker(t, randomWalkAlgorithm(rng), 12)
	}
	// Entries of ±2⁶¹ keep every Π·d̄ of levels 1–3 inside int64 but
	// push the cuts' products past it, so the walk runs on loosened
	// bounds — and must still match.
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(2)
		d := intmat.New(n, 1+rng.Intn(2))
		for r := 0; r < n; r++ {
			for c := 0; c < d.Cols(); c++ {
				d.Set(r, c, []int64{0, 1, -1, 1 << 61, -1 << 61}[rng.Intn(5)])
			}
		}
		mu := make(intmat.Vector, n)
		for i := range mu {
			mu[i] = 1 + int64(rng.Intn(3))
		}
		checkWalker(t, &uda.Algorithm{Name: "huge", Set: uda.IndexSet{Upper: mu}, D: d}, 3)
	}

	// μ = 1⁴, D = I: level 20 holds C(19, 3) = 969 passers.
	algo := &uda.Algorithm{Name: "cube", Set: uda.Cube(4, 1), D: intmat.Identity(4)}
	const cost = 20
	want := streamingLevel(algo, cost)
	if len(want.pis) < 300 {
		t.Fatalf("level %d holds %d passers, the test needs 300", cost, len(want.pis))
	}
	wk := getWalker(algo)
	for _, k := range []int{0, 1, 137, len(want.pis) - 1} {
		seen := 0
		got, err := wk.walk(context.Background(), cost, func(intmat.Vector, int64) bool {
			seen++
			return seen <= k
		})
		if err != nil || got != want.ords[k]+1 {
			t.Fatalf("stopping at passer %d counted %d (%v), want %d", k, got, err, want.ords[k]+1)
		}
	}
	for _, k := range []int{0, 5, len(want.pis) - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, err := wk.walk(ctx, cost, func(intmat.Vector, int64) bool {
			if seen++; seen > k {
				cancel()
			}
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("a walk cancelled at passer %d returned %v, want context.Canceled", k, err)
		}
	}
	if got := walkedLevel(t, wk, cost); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a cancelled walk, level %d walks as %v, want %v", cost, got, want)
	}
}

// TestWalkerCountOverflow: μ = 1⁸ with the dependence columns e₁ and
// −e₁ admits no Π at all, so a walk of level 900 visits nothing and
// only counts — and that level holds about 2.4·10¹⁹ Π, past int64. The
// walk must fail with *intmat.OverflowError instead of wrapping.
func TestWalkerCountOverflow(t *testing.T) {
	n := 8
	d := intmat.New(n, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, -1)
	wk := getWalker(&uda.Algorithm{Name: "e1", Set: uda.Cube(n, 1), D: d})
	visited := 0
	count, err := wk.walk(context.Background(), 900, func(intmat.Vector, int64) bool {
		visited++
		return true
	})
	var oe *intmat.OverflowError
	if !errors.As(err, &oe) || visited != 0 {
		t.Fatalf("level 900: count %d after %d visits, error %v; want an *intmat.OverflowError and no visit", count, visited, err)
	}
	// A level that fits still counts exactly: level 3 holds
	// Σ_k 2^k·C(8,k)·C(2,k−1) = 16 + 224 + 448 = 688 Π.
	if count, err := wk.walk(context.Background(), 3, func(intmat.Vector, int64) bool { return true }); err != nil || count != 688 {
		t.Fatalf("level 3: count %d (%v), want 688", count, err)
	}
}

// FuzzWalkerVsEnumerate cross-checks the walker against enumerate on
// fuzzed μ, D and level.
func FuzzWalkerVsEnumerate(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 4, 3, 2})
	f.Add([]byte{3, 2, 0, 2, 3, 0, 6, 1, 5, 3, 3, 2, 9})
	f.Add([]byte{4, 3, 1, 1, 1, 1, 6, 0, 3, 3, 4, 2, 1, 5, 6, 0, 3, 3, 11})
	f.Add([]byte{1, 1, 3, 6, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		n, m := 1+int(next()%4), 1+int(next()%3)
		mu := make(intmat.Vector, n)
		for i := range mu {
			mu[i] = next() % 4
		}
		d := intmat.New(n, m)
		for r := 0; r < n; r++ {
			for c := 0; c < m; c++ {
				d.Set(r, c, next()%7-3)
			}
		}
		checkWalker(t, &uda.Algorithm{Name: "fuzz", Set: uda.IndexSet{Upper: mu}, D: d}, 1+next()%14)
	})
}

// streamingSearch is the reference for a sequential inner search: it
// streams enumerate over the levels 1…maxCost, counting every Π, and
// returns the first passing every test, with the count.
func streamingSearch(algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, stats *statsCollector) (*Result, error) {
	cctx := newCandCtx(algo, s, opts, analyzer, nil)
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	candidates := 0
	for cost := int64(1); cost <= opts.MaxCost; cost++ {
		stats.costLevels.Add(1)
		var found *Result
		enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
			candidates++
			if Valid(pi, algo.D) {
				found, _ = cctx.tryValid(pi, sc)
			}
			return found == nil
		})
		if found != nil {
			stats.scheduleCandidates.Add(int64(candidates))
			found.Candidates = candidates
			return found, nil
		}
	}
	stats.scheduleCandidates.Add(int64(candidates))
	return nil, ErrNoSchedule
}

// streamingJoint is the Workers=1 reference for FindJointMappingContext:
// the same candidate order and pruning rules, with the time floor found
// by a streaming scan and every inner search streaming enumerate itself
// (streamingSearch).
// (At one worker an inner winner never exceeds the incumbent time, so
// the post-search time cut has nothing to do here.)
func streamingJoint(algo *uda.Algorithm, dims int, opts *SpaceOptions) (*JointResult, *SearchStats, error) {
	stats := &statsCollector{}
	cands, err := collectSpaceMappings(algo.Dim(), dims, maxEntryOrDefault(opts))
	if err != nil {
		return nil, nil, err
	}
	symPruned := symmetryPruned(cands, axisAutomorphisms(algo, nil))
	stats.spaceCandidates.Add(int64(len(cands)))
	weight := wireWeightOrDefault(opts)
	baseMaxCost := maxCostOr(opts.Schedule.MaxCost, algo.Set)
	tFloor := int64(-1)
	if c := streamingFloor(algo, baseMaxCost); c > 0 {
		tFloor = 1 + c
	}
	incT, incC := int64(math.MaxInt64), int64(math.MaxInt64)
	var best *JointResult
	for i, s := range cands {
		if symPruned[i] {
			stats.prunedOrbit.Add(1)
			continue
		}
		wire := wireLength(s, algo.D)
		costLB := processorLowerBound(s, algo.Set.Upper) + weight*wire
		if tFloor > 0 && incT <= tFloor && costLB > incC {
			stats.prunedLowerBound.Add(1)
			continue
		}
		analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
		if err != nil {
			return nil, nil, err
		}
		schedOpts := opts.Schedule
		schedOpts.Workers, schedOpts.SelfCheck, schedOpts.MaxCost = 0, false, baseMaxCost
		if incT != math.MaxInt64 && incT-1 < baseMaxCost {
			schedOpts.MaxCost = incT - 1
		}
		if schedOpts.MaxCost < 1 {
			stats.prunedIncumbent.Add(1)
			continue
		}
		stats.innerSearches.Add(1)
		res, err := streamingSearch(algo, s, &schedOpts, analyzer, stats)
		if errors.Is(err, ErrNoSchedule) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		if res.Time == incT && costLB > incC {
			stats.prunedIncumbent.Add(1)
			continue
		}
		procs := countProcessorImages(s, algo.Set)
		r := &JointResult{
			SpaceResult:    SpaceResult{Mapping: res.Mapping, Processors: procs, WireLength: wire, Cost: procs + weight*wire, Time: res.Time},
			ScheduleResult: res,
		}
		if best == nil || jointLess(r, best) {
			best = r
		}
		if r.Time < incT || (r.Time == incT && r.Cost < incC) {
			incT, incC = r.Time, r.Cost
		}
	}
	if best == nil {
		return nil, nil, ErrNoSchedule
	}
	best.Candidates = len(cands)
	return best, stats.snapshot("joint-6.2", 1, 0, 0, 0), nil
}

// streamingPareto is the Workers=1 reference for FindParetoContext's
// per-S staircase, streaming enumerate on every level of every S. It
// returns the front's signature, the time bound and the counters.
func streamingPareto(algo *uda.Algorithm, dims int, opts *ParetoOptions) ([][3]string, int64, *SearchStats, error) {
	stats := &statsCollector{}
	cands, err := collectSpaceMappings(algo.Dim(), dims, maxEntryOrDefault(&opts.Space))
	if err != nil {
		return nil, 0, nil, err
	}
	symPruned := symmetryPruned(cands, axisAutomorphisms(algo, nil))
	stats.spaceCandidates.Add(int64(len(cands)))
	baseMaxCost := maxCostOr(opts.Space.Schedule.MaxCost, algo.Set)
	floor := streamingFloor(algo, baseMaxCost)
	if floor < 0 {
		return nil, 0, nil, ErrNoSchedule
	}
	cStar := int64(math.MaxInt64)
	var records []paretoRecord
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	for i, s := range cands {
		if symPruned[i] {
			stats.prunedOrbit.Add(1)
			continue
		}
		analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
		if err != nil {
			return nil, 0, nil, err
		}
		schedOpts := opts.Space.Schedule
		schedOpts.Workers, schedOpts.SelfCheck, schedOpts.MaxCost = 0, false, baseMaxCost
		cctx := newCandCtx(algo, s, &schedOpts, analyzer, getWalker(algo).depCols)
		procs, links := countProcessorImages(s, algo.Set), linkCount(s, algo.D)
		stats.innerSearches.Add(1)
		bestBuf := int64(math.MaxInt64)
		for cost := floor; cost <= baseMaxCost && (cStar == math.MaxInt64 || cost <= cStar+opts.TimeSlack); cost++ {
			stats.costLevels.Add(1)
			var lvlMapping *Mapping
			var lvlBuf int64
			enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
				stats.scheduleCandidates.Add(1)
				if !Valid(pi, algo.D) {
					return true
				}
				if r, ok := cctx.tryValid(pi, sc); ok {
					if b := bufferDepth(pi, cctx.depCols); lvlMapping == nil || b < lvlBuf {
						lvlMapping, lvlBuf = r.Mapping, b
					}
				}
				return true
			})
			if lvlMapping == nil {
				continue
			}
			cStar = min(cStar, cost)
			if lvlBuf < bestBuf {
				bestBuf = lvlBuf
				records = append(records, paretoRecord{mapping: lvlMapping, vec: ObjectiveVector{1 + cost, procs, lvlBuf, links}})
				if bestBuf == 0 {
					break
				}
			}
		}
	}
	if cStar == math.MaxInt64 {
		return nil, 0, nil, ErrNoSchedule
	}
	timeBound := 1 + min(baseMaxCost, cStar+opts.TimeSlack)
	var arch Archive
	for _, rec := range records {
		if rec.vec[ObjTime] <= timeBound {
			arch.Insert(ParetoMember{Mapping: rec.mapping, Vector: rec.vec})
		}
	}
	sig := frontSignature(&ParetoResult{Front: arch.Front()})
	return sig, timeBound, stats.snapshot("pareto-front", 1, 0, 0, 0), nil
}

// manifestProblem is the problem statement of one corpus manifest line.
type manifestProblem struct {
	ID           string    `json:"id"`
	Family       string    `json:"family"`
	Bounds       []int64   `json:"bounds"`
	Dependencies [][]int64 `json:"dependencies"`
	Dims         int       `json:"dims"`
	MaxEntry     int64     `json:"max_entry"`
	MaxCost      int64     `json:"max_cost"`
}

// corpusSample draws perFamily problems of every family from the
// committed manifest with a seeded RNG.
func corpusSample(t *testing.T, perFamily int, seed int64) []manifestProblem {
	t.Helper()
	f, err := os.Open("../../corpus/manifest.jsonl")
	if err != nil {
		t.Skipf("corpus manifest unavailable: %v", err)
	}
	defer f.Close()
	byFamily := map[string][]manifestProblem{}
	var families []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // the corpus metadata line
		}
		var p manifestProblem
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if byFamily[p.Family] == nil {
			families = append(families, p.Family)
		}
		byFamily[p.Family] = append(byFamily[p.Family], p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []manifestProblem
	for _, fam := range families {
		ps := byFamily[fam]
		for i := 0; i < perFamily && i < len(ps); i++ {
			out = append(out, ps[rng.Intn(len(ps))])
		}
	}
	return out
}

func (p manifestProblem) algorithm() *uda.Algorithm {
	d := intmat.New(len(p.Bounds), len(p.Dependencies))
	for c, dep := range p.Dependencies {
		d.SetCol(c, dep)
	}
	return &uda.Algorithm{Name: p.ID, Set: uda.IndexSet{Upper: append(intmat.Vector{}, p.Bounds...)}, D: d}
}

// TestWalkerMatchesStreamingOnCorpus: at Workers=1, on a seeded corpus
// sample, the joint and Pareto searches walking their levels pick the
// same winners and fronts as the streaming references, with equal
// ScheduleResult.Candidates and equal ScheduleCandidates, CostLevels and
// InnerSearches counters.
func TestWalkerMatchesStreamingOnCorpus(t *testing.T) {
	perFamily := 8
	if testing.Short() {
		perFamily = 2
	}
	ctx := context.Background()
	for _, p := range corpusSample(t, perFamily, 12) {
		algo := p.algorithm()
		space := SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost, Workers: 1}}

		want, wantStats, wantErr := streamingJoint(algo, p.Dims, &space)
		got, gotErr := FindJointMappingContext(ctx, algo, p.Dims, &space)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNoSchedule)) {
			t.Fatalf("%s joint: error %v, streaming %v", p.ID, gotErr, wantErr)
		}
		if want != nil {
			if g, w := jointFingerprint(got), jointFingerprint(want); g != w {
				t.Fatalf("%s joint:\n got %s\nwant %s", p.ID, g, w)
			}
			g, w := got.Stats, wantStats
			if g.ScheduleCandidates != w.ScheduleCandidates || g.CostLevels != w.CostLevels || g.InnerSearches != w.InnerSearches ||
				g.PrunedOrbit != w.PrunedOrbit || g.PrunedLowerBound != w.PrunedLowerBound || g.PrunedIncumbent != w.PrunedIncumbent {
				t.Fatalf("%s joint stats:\n got %v\nwant %v", p.ID, g, w)
			}
		}

		popts := ParetoOptions{Space: space, TimeSlack: 1}
		wantFront, wantBound, wantPStats, wantErr := streamingPareto(algo, p.Dims, &popts)
		pres, gotErr := FindParetoContext(ctx, algo, p.Dims, &popts)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNoSchedule)) {
			t.Fatalf("%s pareto: error %v, streaming %v", p.ID, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if g := frontSignature(pres); fmt.Sprint(g) != fmt.Sprint(wantFront) || pres.TimeBound != wantBound {
			t.Fatalf("%s pareto: front %v bound %d, streaming %v bound %d", p.ID, g, pres.TimeBound, wantFront, wantBound)
		}
		g, w := pres.Stats, wantPStats
		if g.ScheduleCandidates != w.ScheduleCandidates || g.CostLevels != w.CostLevels || g.InnerSearches != w.InnerSearches {
			t.Fatalf("%s pareto stats:\n got %v\nwant %v", p.ID, g, w)
		}
	}
}

// TestSearchOverflowIsAnError: a dependence entry of −2⁶² makes Π·d̄
// pass int64 for small Π. Every search returns ErrNoSchedule or an
// *intmat.OverflowError — never a panic, which inside a worker
// goroutine would take the whole process down. (FindSpaceMapping's
// Π = (1, 3) overflows already in its ΠD > 0 check.)
func TestSearchOverflowIsAnError(t *testing.T) {
	d := intmat.New(2, 2)
	d.SetCol(0, []int64{0, 1})
	d.SetCol(1, []int64{1, -4611686018427387904})
	algo := &uda.Algorithm{Name: "huge", Set: uda.IndexSet{Upper: intmat.Vec(3, 3)}, D: d}
	check := func(what string, err error) {
		t.Helper()
		var oe *intmat.OverflowError
		if !errors.Is(err, ErrNoSchedule) && !errors.As(err, &oe) {
			t.Errorf("%s: %v, want ErrNoSchedule or an *intmat.OverflowError", what, err)
		}
	}
	for _, workers := range []int{1, 2} {
		_, err := FindOptimal(algo, intmat.FromRows([]int64{1, 0}), &Options{Workers: workers})
		check(fmt.Sprintf("FindOptimal workers=%d", workers), err)
		_, err = FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: workers}})
		check(fmt.Sprintf("FindJointMapping workers=%d", workers), err)
		_, err = FindPareto(algo, 1, &ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers}}, TimeSlack: 1})
		check(fmt.Sprintf("FindPareto workers=%d", workers), err)
		_, err = FindSpaceMapping(algo, intmat.Vec(1, 3), 1, &SpaceOptions{Schedule: Options{Workers: workers}})
		check(fmt.Sprintf("FindSpaceMapping workers=%d", workers), err)
	}
}

// TestWalkerCountsWithoutTables: the counts a walker computes before it
// has tables equal the tables' on random weights (degenerate axes
// included), for every coordinate and budget up to 40 (strides but the
// last coordinate's, which no walk reads), and a table-free count past
// int64
// fails the walk: μ = (1, 1) with columns e₁ and −e₁ admits no Π, and
// level r holds exactly 4r of them.
func TestWalkerCountsWithoutTables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		algo := randomWalkAlgorithm(rng)
		for i := range algo.Set.Upper {
			algo.Set.Upper[i] = int64(rng.Intn(7))
		}
		wk := getWalker(algo)
		var free [][2]int64
		for i := 0; i < wk.n; i++ {
			for r := int64(0); r <= 40; r++ {
				c := [2]int64{wk.count(i, r)}
				if i < wk.n-1 { // the walk sums no stride of the last coordinate
					c[1] = wk.stride(i, r)
				}
				free = append(free, c)
			}
		}
		wk.grow(40)
		for i := 0; i < wk.n; i++ {
			for r := int64(0); r <= 40; r++ {
				got := free[i*41+int(r)]
				if want := wk.count(i, r); got[0] != want {
					t.Fatalf("μ=%v: N_%d(%d) = %d without tables, %d with", algo.Set.Upper, i, r, got[0], want)
				}
				if i == wk.n-1 {
					continue
				}
				if want := wk.stride(i, r); got[1] != want {
					t.Fatalf("μ=%v: P_%d(%d) = %d without tables, %d with", algo.Set.Upper, i, r, got[1], want)
				}
			}
		}
		putWalker(wk)
	}

	d := intmat.New(2, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, -1)
	wk := getWalker(&uda.Algorithm{Name: "e1", Set: uda.Cube(2, 1), D: d})
	none := func(intmat.Vector, int64) bool { t.Fatal("a Π passed"); return false }
	if count, err := wk.walk(context.Background(), 1<<60, none); err != nil || count != 1<<62 {
		t.Fatalf("level 2⁶⁰: count %d (%v), want 2⁶²", count, err)
	}
	var oe *intmat.OverflowError
	if count, err := wk.walk(context.Background(), 1<<61, none); !errors.As(err, &oe) {
		t.Fatalf("level 2⁶¹: count %d, error %v; want an *intmat.OverflowError", count, err)
	}
}

// skewedIdentity is D = I on μ = (1, 250000): every level below 250001
// holds two or three Π and no passer, and the first passer, Π = (1, 1),
// lies at level 250001 — past the count tables' cap for n = 2.
func skewedIdentity() *uda.Algorithm {
	return &uda.Algorithm{Name: "skewed", Set: uda.IndexSet{Upper: intmat.Vec(1, 250000)}, D: intmat.Identity(2)}
}

// TestWalkerPastTableCap: levels past the count tables' cap walk as
// enumerate does, on skewed μ whose levels there stay small, with the
// table never past the cap; a problem without a passer — columns e₁
// and −e₁ — walks on past the cap until its context ends, in bounded
// memory.
func TestWalkerPastTableCap(t *testing.T) {
	rng := rand.New(rand.NewSource(250))
	for _, mu := range []intmat.Vector{intmat.Vec(1), intmat.Vec(1, 250000), intmat.Vec(250000, 1), intmat.Vec(500000, 3, 400000)} {
		algo := &uda.Algorithm{Name: "skewed", Set: uda.IndexSet{Upper: mu}, D: intmat.Identity(len(mu))}
		if len(mu) > 1 {
			algo.D = intmat.New(len(mu), 3)
			for r := range mu {
				for c := 0; c < 3; c++ {
					algo.D.Set(r, c, int64(rng.Intn(7)-3))
				}
			}
		}
		wk := getWalker(algo)
		for _, cost := range []int64{wk.tabCost - 1, wk.tabCost, wk.tabCost + 1, wk.tabCost + 2, 250000, 250001, 500003} {
			if got, want := walkedLevel(t, wk, cost), streamingLevel(algo, cost); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("μ=%v D=%v level %d:\n got %v\nwant %v", mu, algo.D, cost, got, want)
			}
		}
		if len(wk.tab) > walkerMaxWords {
			t.Fatalf("μ=%v: the table grew to %d words", mu, len(wk.tab))
		}
	}
	if got, err := getWalker(skewedIdentity()).firstValidLevel(context.Background(), 1<<40); err != nil || got != 250001 {
		t.Fatalf("skewed μ: first valid level %d (%v), want 250001", got, err)
	}

	d := intmat.New(3, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, -1)
	wk := getWalker(&uda.Algorithm{Name: "e1", Set: uda.Cube(3, 1), D: d})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	levels := 0
	_, err := wk.walk(ctx, wk.tabCost-1, func(intmat.Vector, int64) bool { return true })
	for cost := wk.tabCost; err == nil; cost++ {
		if levels++; levels == 50 {
			cancel()
		}
		_, err = wk.walk(ctx, cost, func(intmat.Vector, int64) bool { return true })
	}
	if !errors.Is(err, context.Canceled) || levels < 50 {
		t.Fatalf("past the cap: %v after %d levels, want context.Canceled after 50", err, levels)
	}
	if len(wk.tab) > walkerMaxWords || int64(len(wk.barren)) > wk.tabCost {
		t.Fatalf("past the cap: table %d words, %d levels remembered", len(wk.tab), len(wk.barren))
	}
}

// TestSearchPastTableCap: the searches find the skewed problem's only
// time-optimal Π, (1, 1), at level 250001, past the count tables' cap.
func TestSearchPastTableCap(t *testing.T) {
	algo := skewedIdentity()
	want := intmat.Vec(1, 1).String()
	for _, workers := range []int{1, 2} {
		res, err := FindOptimal(algo, intmat.FromRows([]int64{1, 0}), &Options{Workers: workers})
		if err != nil || res.Mapping.Pi.String() != want {
			t.Fatalf("FindOptimal workers=%d: %v (%v), want Π = %s", workers, res, err, want)
		}
		joint, err := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: workers}})
		if err != nil || joint.Mapping.Pi.String() != want {
			t.Fatalf("FindJointMapping workers=%d: %v (%v), want Π = %s", workers, joint, err, want)
		}
		front, err := FindPareto(algo, 1, &ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers}}})
		if err != nil || len(front.Front) == 0 || front.Front[0].Mapping.Pi.String() != want {
			t.Fatalf("FindPareto workers=%d: %v (%v), want Π = %s first", workers, front, err, want)
		}
	}
}
