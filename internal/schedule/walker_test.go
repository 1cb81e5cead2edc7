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
	"time"

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

// streamingLevel is one objective level as enumerate sees it: the Π
// passing ΠD > 0, in enumeration order.
func streamingLevel(algo *uda.Algorithm, cost int64) []string {
	var pis []string
	enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
		if Valid(pi, algo.D) {
			pis = append(pis, pi.String())
		}
		return true
	})
	return pis
}

// streamingFloor is the lowest level holding a Π with ΠD > 0, found by
// streaming enumerate; −1 when there is none up to maxCost.
func streamingFloor(algo *uda.Algorithm, maxCost int64) int64 {
	for cost := int64(1); cost <= maxCost; cost++ {
		if len(streamingLevel(algo, cost)) > 0 {
			return cost
		}
	}
	return -1
}

// walkedLevel is one level as the walker visits it.
func walkedLevel(t testing.TB, wk *piWalker, cost int64) []string {
	t.Helper()
	var pis []string
	err := wk.walk(context.Background(), cost, func(pi intmat.Vector) bool {
		pis = append(pis, pi.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return pis
}

// checkWalker compares every level up to maxLevel of algo, walked twice
// (the second walk answers barren levels from memory), with enumerate.
func checkWalker(t testing.TB, algo *uda.Algorithm, maxLevel int64) {
	t.Helper()
	wk := getWalker(algo)
	defer putWalker(wk)
	for pass := 0; pass < 2; pass++ {
		for cost := int64(1); cost <= maxLevel; cost++ {
			got, want := walkedLevel(t, wk, cost), streamingLevel(algo, cost)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("μ=%v D=%v level %d pass %d:\n got %v\nwant %v", algo.Set.Upper, algo.D, cost, pass, got, want)
			}
		}
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
// filtered by ΠD > 0 — the same passers in the same order — on random μ
// and D; a walk stopped at passer k has visited the first k + 1; a walk
// whose context ends mid-level returns the context's error.
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
	if len(want) < 300 {
		t.Fatalf("level %d holds %d passers, the test needs 300", cost, len(want))
	}
	wk := getWalker(algo)
	for _, k := range []int{0, 1, 137, len(want) - 1} {
		var got []string
		err := wk.walk(context.Background(), cost, func(pi intmat.Vector) bool {
			got = append(got, pi.String())
			return len(got) <= k
		})
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want[:k+1]) {
			t.Fatalf("stopping at passer %d visited %v (%v), want %v", k, got, err, want[:k+1])
		}
	}
	for _, k := range []int{0, 5, len(want) - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := wk.walk(ctx, cost, func(intmat.Vector) bool {
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
// streams enumerate over the levels 1…maxCost and returns the first Π
// passing every test, with the count of ΠD > 0 passers it tested.
func streamingSearch(algo *uda.Algorithm, s *intmat.Matrix, opts *Options, analyzer *conflict.SpaceAnalyzer, stats *statsCollector) (*Result, error) {
	cctx := newCandCtx(algo, s, opts, analyzer, nil)
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	candidates := 0
	for cost := int64(1); cost <= opts.MaxCost; cost++ {
		stats.costLevels.Add(1)
		var found *Result
		enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
			if Valid(pi, algo.D) {
				candidates++
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
	symPruned := symmetryPruned(cands, axisAutomorphismsByKey(algo, nil))
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

// streamingPareto is the reference for FindParetoContext: the per-S
// staircase search the level walk replaced, at one worker, on the
// levels enumerate streams. In candidate order, each live S walks the
// levels from the first holding a ΠD > 0 passer up to the best time any
// S has found so far plus the slack (MaxCost before one is found). On
// each it takes the fewest-buffer passer, the first among equals, when
// its buffers improve on the S's lower levels, and it stops after a pick
// without buffers. The picks within the final window make the front.
//
// Its Stats are the counts of the one level walk: the levels from 1 up
// to the window's end — or up to the level where the last S stops, if
// every S stops inside the window — and their passers, that last level
// cut after the chunk (for a lone S, the passer) where the last S
// stopped.
func streamingPareto(algo *uda.Algorithm, dims int, opts *ParetoOptions) (*ParetoResult, error) {
	cands, err := collectSpaceMappings(algo.Dim(), dims, maxEntryOrDefault(&opts.Space))
	if err != nil {
		return nil, err
	}
	symPruned := symmetryPruned(cands, axisAutomorphismsByKey(algo, nil))
	maxCost := maxCostOr(opts.Space.Schedule.MaxCost, algo.Set)
	levels := map[int64][]intmat.Vector{}
	level := func(cost int64) []intmat.Vector {
		pis, ok := levels[cost]
		if !ok {
			enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
				if Valid(pi, algo.D) {
					pis = append(pis, pi.Clone())
				}
				return true
			})
			levels[cost] = pis
		}
		return pis
	}
	floor := int64(1)
	for ; floor <= maxCost && len(level(floor)) == 0; floor++ {
	}
	if floor > maxCost {
		return nil, fmt.Errorf("%w: no Π with ΠD > 0 and Σ|π_i|·μ_i ≤ %d", ErrNoSchedule, maxCost)
	}
	type stop struct{ cost, at int64 } // the level and the passer after which an S stops
	var stops []stop
	cStar := int64(math.MaxInt64)
	var records []ParetoMember
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	live := 0
	for i, s := range cands {
		if symPruned[i] {
			continue
		}
		live++
		analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
		if err != nil {
			return nil, err
		}
		schedOpts := opts.Space.Schedule
		schedOpts.Workers, schedOpts.SelfCheck = 0, false
		cctx := newCandCtx(algo, s, &schedOpts, analyzer, getWalker(algo).depCols)
		procs, links := countProcessorImages(s, algo.Set), linkCount(s, algo.D)
		bestBuf := int64(math.MaxInt64)
		for cost := floor; cost <= maxCost && (cStar == math.MaxInt64 || cost <= cStar+opts.TimeSlack); cost++ {
			var pick *Mapping
			var pickBuf, pickAt int64
			for at, pi := range level(cost) {
				if r, ok := cctx.tryValid(pi, sc); ok {
					if b := bufferDepth(pi, cctx.depCols); pick == nil || b < pickBuf {
						pick, pickBuf, pickAt = r.Mapping, b, int64(at)
					}
				}
			}
			if pick == nil {
				continue
			}
			cStar = min(cStar, cost)
			if pickBuf < bestBuf {
				bestBuf = pickBuf
				records = append(records, ParetoMember{Mapping: pick, Vector: ObjectiveVector{1 + cost, procs, pickBuf, links}})
				if bestBuf == 0 {
					stops = append(stops, stop{cost, pickAt})
					break
				}
			}
		}
	}
	if cStar == math.MaxInt64 {
		return nil, fmt.Errorf("%w: no conflict-free joint mapping with |entries| ≤ %d", ErrNoSchedule, maxEntryOrDefault(&opts.Space))
	}
	end := min(maxCost, cStar+opts.TimeSlack)
	var arch Archive
	for _, rec := range records {
		if rec.Vector[ObjTime] <= 1+end {
			arch.Insert(rec)
		}
	}
	// The walk's counts: it ends early when every S stops in the window.
	last := stop{end, -1}
	if len(stops) == live {
		last = stops[0]
		for _, st := range stops[1:] {
			if st.cost > last.cost || st.cost == last.cost && st.at > last.at {
				last = st
			}
		}
		if last.cost > end {
			last = stop{end, -1}
		}
	}
	stats := &statsCollector{}
	stats.spaceCandidates.Add(int64(len(cands)))
	stats.prunedOrbit.Add(int64(len(cands) - live))
	stats.innerSearches.Add(int64(live))
	stats.costLevels.Add(last.cost)
	for cost := int64(1); cost <= last.cost; cost++ {
		n := int64(len(level(cost)))
		if cost == last.cost && last.at >= 0 {
			if live == 1 {
				n = last.at + 1
			} else {
				n = min(n, (last.at/int64(walkChunk)+1)*int64(walkChunk))
			}
		}
		stats.scheduleCandidates.Add(n)
	}
	front := arch.Front()
	return &ParetoResult{
		Front:      front,
		Best:       selectBest(front, opts),
		TimeBound:  1 + end,
		Candidates: len(cands),
		Pruned:     len(cands) - live,
		Stats:      stats.snapshot("pareto-front", 1, 0, 0, 0),
	}, nil
}

// paretoIdentity is everything of a Pareto search's outcome the level
// walk must reproduce from streamingPareto: the error text, or the
// front, best pick, bound and counts.
func paretoIdentity(res *ParetoResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	st := res.Stats
	return fmt.Sprintf("front=%v best=%d bound=%d candidates=%d pruned=%d sched=%d levels=%d inner=%d",
		frontSignature(res), res.Best, res.TimeBound, res.Candidates, res.Pruned, st.ScheduleCandidates, st.CostLevels, st.InnerSearches)
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

// corpusProblems returns the committed manifest's problems in order.
func corpusProblems(t *testing.T) []manifestProblem {
	t.Helper()
	f, err := os.Open("../../corpus/manifest.jsonl")
	if err != nil {
		t.Skipf("corpus manifest unavailable: %v", err)
	}
	defer f.Close()
	var out []manifestProblem
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
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// corpusSample draws perFamily problems of every family from the
// committed manifest with a seeded RNG.
func corpusSample(t *testing.T, perFamily int, seed int64) []manifestProblem {
	t.Helper()
	byFamily := map[string][]manifestProblem{}
	var families []string
	for _, p := range corpusProblems(t) {
		if byFamily[p.Family] == nil {
			families = append(families, p.Family)
		}
		byFamily[p.Family] = append(byFamily[p.Family], p)
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

// distinctCorpus returns the committed manifest's problems, the first
// of each group that shares its bounds, dependences and search knobs.
func distinctCorpus(t *testing.T) []manifestProblem {
	t.Helper()
	seen := map[string]bool{}
	var out []manifestProblem
	for _, p := range corpusProblems(t) {
		if key := fmt.Sprint(p.Bounds, p.Dependencies, p.Dims, p.MaxEntry, p.MaxCost); !seen[key] {
			seen[key] = true
			out = append(out, p)
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
// ScheduleResult.Candidates and orbit counts, and, for Pareto, equal
// ScheduleCandidates, CostLevels and InnerSearches counters.
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
			if g, w := got.Stats, wantStats; g.PrunedOrbit != w.PrunedOrbit {
				t.Fatalf("%s joint stats:\n got %v\nwant %v", p.ID, g, w)
			}
		}

		popts := ParetoOptions{Space: space, TimeSlack: 1}
		wantP := paretoIdentity(streamingPareto(algo, p.Dims, &popts))
		if got := paretoIdentity(FindParetoContext(ctx, algo, p.Dims, &popts)); got != wantP {
			t.Fatalf("%s pareto:\n got %s\nwant %s", p.ID, got, wantP)
		}
	}
}

// TestSearchOverflowIsAnError: a dependence entry of −2⁶² makes Π·d̄
// pass int64 for small Π. Every search returns ErrNoSchedule or an
// *intmat.OverflowError — never a panic, which inside a worker
// goroutine would take the whole process down. (FindSpaceMapping's
// Π = (1, 3) overflows already in its ΠD > 0 check.) With the column
// d̄ = (2⁶², 2⁶²), Π = (0, 1) passes without overflow, but S = (1 1)
// maps d̄ past int64, so the Pareto search, which counts the links of
// every live S, returns an *intmat.OverflowError.
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
	d = intmat.New(2, 1)
	d.SetCol(0, []int64{1 << 62, 1 << 62})
	algo = &uda.Algorithm{Name: "huge-image", Set: uda.IndexSet{Upper: intmat.Vec(3, 3)}, D: d}
	for _, workers := range []int{1, 2} {
		_, err := FindPareto(algo, 1, &ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers}}})
		if oe := (*intmat.OverflowError)(nil); !errors.As(err, &oe) {
			t.Errorf("FindPareto huge-image workers=%d: %v, want an *intmat.OverflowError", workers, err)
		}
	}
}

// skewedIdentity is D = I on μ = (1, 250000): every level below 250001
// holds two or three Π and no passer, and the first passer, Π = (1, 1),
// lies at level 250001, past the levels a walker remembers.
func skewedIdentity() *uda.Algorithm {
	return &uda.Algorithm{Name: "skewed", Set: uda.IndexSet{Upper: intmat.Vec(1, 250000)}, D: intmat.Identity(2)}
}

// TestWalkerPastTableCap: on skewed μ, whose levels stay small far up,
// the levels around barrenLevels and from 209714 to 500003 walk as
// enumerate does; a problem without a passer — columns e₁ and −e₁ —
// walks on past barrenLevels until its context ends, remembering no
// level past it.
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
		for _, cost := range []int64{barrenLevels - 1, barrenLevels, 209714, 209715, 209716, 250000, 250001, 500003} {
			if got, want := walkedLevel(t, wk, cost), streamingLevel(algo, cost); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("μ=%v D=%v level %d:\n got %v\nwant %v", mu, algo.D, cost, got, want)
			}
		}
	}
	wk := getWalker(skewedIdentity())
	for cost := int64(1); cost <= 250000; cost++ {
		if got := walkedLevel(t, wk, cost); len(got) > 0 {
			t.Fatalf("skewed μ: level %d walks as %v, want no passer below level 250001", cost, got)
		}
	}
	if got := walkedLevel(t, wk, 250001); fmt.Sprint(got) != "[[1 1]]" {
		t.Fatalf("skewed μ: level 250001 walks as %v, want the first passer [[1 1]]", got)
	}

	d := intmat.New(3, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, -1)
	wk = getWalker(&uda.Algorithm{Name: "e1", Set: uda.Cube(3, 1), D: d})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	levels := 0
	var err error
	for cost := int64(barrenLevels - 25); err == nil; cost++ {
		if levels++; levels == 50 {
			cancel()
		}
		err = wk.walk(ctx, cost, func(intmat.Vector) bool { return true })
	}
	if !errors.Is(err, context.Canceled) || levels < 50 {
		t.Fatalf("past the memo: %v after %d levels, want context.Canceled after 50", err, levels)
	}
	if len(wk.barren) > barrenLevels || !wk.barren[barrenLevels-1] {
		t.Fatalf("past the memo: %d levels remembered, want %d, the last barren", len(wk.barren), barrenLevels)
	}
}

// TestSearchPastTableCap: the searches find the skewed problem's only
// time-optimal Π, (1, 1), at level 250001.
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

// chainProbe is μ = 1ⁿ with the dependence columns e₁ − c·e₂, e₂, …, eₙ
// and S = (0 0 1 2 4 8 …). A passer needs π_1 ≥ c·π_2 + 1 and every
// other π_i ≥ 1, so the levels below c + n hold none, and level c + n
// holds one, Π = (c+1, 1, …, 1), the optimum. Level c + n − 1 holds
// about 2ⁿ(c + n)ⁿ⁻¹/(n − 1)! Π in all, past int64 for n = 8 at
// c = 500.
func chainProbe(n int, c int64) (*uda.Algorithm, *intmat.Matrix) {
	d := intmat.Identity(n)
	d.Set(1, 0, -c)
	s := intmat.New(1, n)
	for i := 2; i < n; i++ {
		s.Set(0, i, 1<<(i-2))
	}
	return &uda.Algorithm{Name: "chain", Set: uda.Cube(n, 1), D: d}, s
}

// TestSearchCountsPassersPastInt64 is the regression test for counts
// of every Π a level holds: at n = 8 they wrapped int64, giving a
// negative Candidates at c = 500, and refused c = 1000 with an int64
// overflow. FindOptimal answers both, at one and two workers, with
// the reference's count of passers tested: one, the optimum.
func TestSearchCountsPassersPastInt64(t *testing.T) {
	for _, c := range []int64{500, 1000} {
		algo, s := chainProbe(8, c)
		want := intmat.Vec(c+1, 1, 1, 1, 1, 1, 1, 1)
		opts := Options{MaxCost: 2*c + 100}
		ref := referenceProcedure51(t, algo, s, &opts)
		if ref == nil || !ref.Mapping.Pi.Equal(want) || ref.Candidates != 1 {
			t.Fatalf("c=%d: reference found %v, want Π = %v after 1 candidate", c, ref, want)
		}
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			res, err := FindOptimal(algo, s, &opts)
			if err != nil {
				t.Fatalf("c=%d workers=%d: %v", c, workers, err)
			}
			if !res.Mapping.Pi.Equal(want) || res.Candidates != ref.Candidates || res.Stats.ScheduleCandidates != int64(ref.Candidates) {
				t.Fatalf("c=%d workers=%d: Π = %v, %d candidates (stats %d); want Π = %v, %d",
					c, workers, res.Mapping.Pi, res.Candidates, res.Stats.ScheduleCandidates, want, ref.Candidates)
			}
		}
	}
}

// TestWalkerHonoursDeadlinePastCap: the chain probe at n = 6, c = 7500
// walks 7505 levels without a passer, about 8 s of work; a search of
// it stops within 100 ms of its deadline.
func TestWalkerHonoursDeadlinePastCap(t *testing.T) {
	algo, s := chainProbe(6, 7500)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := FindOptimalContext(ctx, algo, s, &Options{MaxCost: 2*7500 + 100})
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > 300*time.Millisecond {
		t.Fatalf("search returned %v after %v, want the deadline within 300ms", err, elapsed)
	}
}

// TestWorkerOverflowIsAnError: with the two-row S of the conflict fuzz
// seed seed-overflow, whose entries reach 16 080, the chain probe at
// n = 6, c = 10⁵ decides Π = (100001, 1, …, 1) with an int64 overflow.
// Inside the helper goroutines of a Workers = 2 level walk that fails
// the search instead of the process.
func TestWorkerOverflowIsAnError(t *testing.T) {
	algo, _ := chainProbe(6, 100000)
	s := intmat.FromRows([]int64{1, -1, 0, 97, 0, 12848}, []int64{0, -16080, 49, 12353, 0, -207})
	pi := intmat.Vec(100001, 1, 1, 1, 1, 1)
	// Two S and a chunk of copies of Π: enough decisions to wake the
	// helper.
	j := getLevelWalk(algo, &SpaceOptions{}, &statsCollector{}, 2)
	defer j.release()
	for range 2 {
		analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
		if err != nil {
			t.Fatal(err)
		}
		j.add(analyzer, 0, 0, conflict.GetMemo())
	}
	j.spawn(context.Background(), 2)
	for range walkFanoutMin {
		j.pis = append(j.pis, pi...)
	}
	j.seen = walkFanoutMin
	if j.flush() {
		t.Fatal("the walk goes on after an overflow")
	}
	var oe *intmat.OverflowError
	if err := j.errs.takeErr(); !errors.As(err, &oe) {
		t.Fatalf("error %v, want an *intmat.OverflowError", err)
	}
}
