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
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"lodim/internal/array"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// refLevel is one objective level as the streaming scan sees it: the Π
// passing ΠD > 0 in enumeration order, their ordinals among all Π of
// the level, and the level's raw size.
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

func checkLevel(t *testing.T, what string, lv *piLevel, want refLevel) {
	t.Helper()
	if lv.raw != want.raw || lv.Len() != len(want.pis) {
		t.Fatalf("%s: raw %d with %d passers, want raw %d with %d", what, lv.raw, lv.Len(), want.raw, len(want.pis))
	}
	for i := range want.pis {
		if got := lv.pi(i).String(); got != want.pis[i] || lv.ords[i] != want.ords[i] {
			t.Fatalf("%s: entry %d = %s (ordinal %d), want %s (ordinal %d)", what, i, got, lv.ords[i], want.pis[i], want.ords[i])
		}
	}
}

// TestLadderMatchesEnumerate: every ladder level is enumerate filtered
// by ΠD > 0, in the same order and with the same ordinals, on random μ
// (degenerate axes μ_i = 0 included) and random D.
func TestLadderMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		mu := make(intmat.Vector, n)
		for i := range mu {
			mu[i] = int64(rng.Intn(4))
		}
		d := intmat.New(n, 1+rng.Intn(3))
		for r := 0; r < n; r++ {
			for c := 0; c < d.Cols(); c++ {
				d.Set(r, c, int64(rng.Intn(5)-2))
			}
		}
		algo := &uda.Algorithm{Name: "random", Set: uda.IndexSet{Upper: mu}, D: d}
		l := newPiLadder(algo)
		for cost := int64(1); cost <= 10; cost++ {
			lv, err := l.level(context.Background(), cost)
			if err != nil {
				t.Fatal(err)
			}
			checkLevel(t, fmt.Sprintf("μ=%v D=%v level %d", mu, d, cost), lv, streamingLevel(algo, cost))
		}
		want := streamingFloor(algo, 10)
		if got, err := l.firstNonEmpty(context.Background(), 10); err != nil || got != want {
			t.Fatalf("μ=%v D=%v: first non-empty level %d (%v), want %d", mu, d, got, err, want)
		}
	}
}

// cancelAfterCtx reports cancellation from its n-th Err call on, so a
// level build is interrupted part-way at a deterministic point.
type cancelAfterCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfterCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestLadderCancelledBuild: a build interrupted by its context is never
// readable as complete — neither by the next caller nor by callers that
// waited on the interrupted build concurrently.
func TestLadderCancelledBuild(t *testing.T) {
	algo := &uda.Algorithm{Name: "cube", Set: uda.Cube(3, 1), D: intmat.Identity(3)}
	// Level 12 holds 578 Π, so the build polls its context at Π 0, 256
	// and 512: cancelling on the second poll stops it part-way.
	const cost = 12
	want := streamingLevel(algo, cost)
	l := newPiLadder(algo)
	if _, err := l.level(&cancelAfterCtx{Context: context.Background(), n: 2}, cost); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	lv, err := l.level(context.Background(), cost)
	if err != nil {
		t.Fatal(err)
	}
	checkLevel(t, "after a cancelled build", lv, want)

	for round := 0; round < 20; round++ {
		l := newPiLadder(algo)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(cancelled bool) {
				defer wg.Done()
				var ctx context.Context = context.Background()
				if cancelled {
					ctx = &cancelAfterCtx{Context: ctx, n: 2}
				}
				lv, err := l.level(ctx, cost)
				switch {
				case err != nil && !cancelled:
					t.Errorf("uncancelled reader failed: %v", err)
				case err != nil && !errors.Is(err, context.Canceled):
					t.Errorf("cancelled reader failed with %v", err)
				case err == nil && (lv.raw != want.raw || lv.Len() != len(want.pis)):
					t.Errorf("reader saw raw %d with %d passers, want raw %d with %d", lv.raw, lv.Len(), want.raw, len(want.pis))
				}
			}(g%2 == 0)
		}
		wg.Wait()
	}
}

// scannedLevel is one level as the ladder's scan reports it, held or
// streamed.
func scannedLevel(t *testing.T, l *piLadder, cost int64) refLevel {
	t.Helper()
	var got refLevel
	raw, err := l.scan(context.Background(), cost, func(pi intmat.Vector, ord int64) bool {
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

// TestLadderPastCapSameAnswers: levels past the storage cap are not
// retained but streamed by each reader, and every inner search reading
// the ladder answers exactly as the streaming search does —
// sequentially and on the level-synchronous (Workers > 1,
// MinimizeBuffers) path.
func TestLadderPastCapSameAnswers(t *testing.T) {
	ctx := context.Background()
	variants := []Options{{}, {Workers: 2}, {Machine: array.NearestNeighbor(1), MinimizeBuffers: true}}
	for _, algo := range []*uda.Algorithm{uda.MatMul(4), uda.TransitiveClosure(4)} {
		cands, err := collectSpaceMappings(algo.Dim(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, capWords := range []int64{0, 64, ladderMaxWords} {
			l := newPiLadder(algo)
			l.capWords = capWords
			for _, s := range cands {
				analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
				if err != nil {
					t.Fatal(err)
				}
				for _, opts := range variants {
					opts.MaxCost = 40
					var wantStats, gotStats statsCollector
					want, wantErr := findOptimalWith(ctx, algo, s, &opts, analyzer, &innerEnv{stats: &wantStats})
					got, gotErr := findOptimalWith(ctx, algo, s, &opts, analyzer, &innerEnv{stats: &gotStats, ladder: l})
					what := fmt.Sprintf("%s cap %d S=%v %+v", algo.Name, capWords, s.Row(0), opts)
					if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNoSchedule)) {
						t.Fatalf("%s: error %v, streaming %v", what, gotErr, wantErr)
					}
					if want != nil && (got.Mapping.Pi.String() != want.Mapping.Pi.String() || got.Time != want.Time || got.Candidates != want.Candidates) {
						t.Fatalf("%s: Π=%v t=%d candidates %d, streaming Π=%v t=%d candidates %d",
							what, got.Mapping.Pi, got.Time, got.Candidates, want.Mapping.Pi, want.Time, want.Candidates)
					}
					if g, w := gotStats.snapshot("", 0, 0, 0, 0), wantStats.snapshot("", 0, 0, 0, 0); g.ScheduleCandidates != w.ScheduleCandidates || g.CostLevels != w.CostLevels {
						t.Fatalf("%s: counted %d Π over %d levels, streaming %d over %d",
							what, g.ScheduleCandidates, g.CostLevels, w.ScheduleCandidates, w.CostLevels)
					}
				}
			}
			if l.stored > capWords {
				t.Errorf("%s: ladder retains %d words past its cap %d", algo.Name, l.stored, capWords)
			}
			if l.full != (capWords < ladderMaxWords) {
				t.Errorf("%s cap %d: full = %v", algo.Name, capWords, l.full)
			}
			for cost := int64(1); cost <= 40; cost++ {
				what := fmt.Sprintf("%s cap %d level %d", algo.Name, capWords, cost)
				want := streamingLevel(algo, cost)
				lv, err := l.level(ctx, cost)
				if err != nil {
					t.Fatal(err)
				}
				if lv != nil {
					checkLevel(t, what, lv, want)
				}
				if got := scannedLevel(t, l, cost); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: scan saw %v, want %v", what, got, want)
				}
			}
		}
	}
}

// TestLadderPastCapStreamsInConstantMemory: once a ladder is full, a
// level it does not hold costs a reader the same few allocations
// whatever its size — the scan streams enumerate instead of building
// the level — and so does each level of a sequential inner search.
func TestLadderPastCapStreamsInConstantMemory(t *testing.T) {
	if intmat.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	ctx := context.Background()
	// μ = 1⁶ with the single dependence e1: ΠD > 0 iff π_1 > 0, so level
	// 4 holds 231 passers, level 8 holds 7183.
	n := 6
	d := intmat.New(n, 1)
	d.Set(0, 0, 1)
	algo := &uda.Algorithm{Name: "e1", Set: uda.Cube(n, 1), D: d}
	l := newPiLadder(algo)
	l.capWords = 0
	if floor, err := l.firstNonEmpty(ctx, 10); err != nil || floor != 1 {
		t.Fatalf("floor %d (%v), want 1", floor, err)
	}
	if !l.full || len(l.levels) != 0 {
		t.Fatalf("a zero-cap ladder holds %d levels (full %v)", len(l.levels), l.full)
	}
	scanAllocs := func(cost int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := l.scan(ctx, cost, func(intmat.Vector, int64) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := scanAllocs(4), scanAllocs(8)
	if large != small {
		t.Errorf("scanning level 8 takes %v allocations, level 4 takes %v", large, small)
	}

	// A sequential inner search on the full ladder allocates no more per
	// level than one streaming enumerate itself, however large the level:
	// every passer of every level is tested (no Π makes S conflict-free
	// at these levels), and none is kept.
	s := intmat.FromRows([]int64{1, 1, 1, 1, 1, 1})
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		t.Fatal(err)
	}
	searchAllocs := func(cost int64, ladder *piLadder) float64 {
		opts := Options{MinCost: cost, MaxCost: cost}
		return testing.AllocsPerRun(5, func() {
			if _, err := findOptimalWith(ctx, algo, s, &opts, analyzer, &innerEnv{stats: &statsCollector{}, ladder: ladder}); !errors.Is(err, ErrNoSchedule) {
				t.Fatalf("level %d: %v, want ErrNoSchedule", cost, err)
			}
		})
	}
	// Garbage collection would empty the scratch pool mid-measurement
	// and add stray allocations to either side.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, cost := range []int64{4, 8} {
		if got, streaming := searchAllocs(cost, l), searchAllocs(cost, nil); got > streaming {
			t.Errorf("an inner search over level %d takes %v allocations, a streaming one %v", cost, got, streaming)
		}
	}
}

// streamingJoint is the Workers=1 reference for FindJointMappingContext:
// the same candidate order and pruning rules, with the time floor found
// by a streaming scan and every inner search streaming enumerate itself.
// (At one worker an inner winner never exceeds the incumbent time, so
// the post-search time cut has nothing to do here.)
func streamingJoint(algo *uda.Algorithm, dims int, opts *SpaceOptions) (*JointResult, *SearchStats, error) {
	ctx := context.Background()
	stats := &statsCollector{}
	cands, err := collectSpaceMappings(algo.Dim(), dims, maxEntryOrDefault(opts))
	if err != nil {
		return nil, nil, err
	}
	symPruned := symmetryPruned(cands, axisAutomorphisms(algo, nil))
	stats.spaceCandidates.Add(int64(len(cands)))
	weight := wireWeightOrDefault(opts)
	baseMaxCost := opts.Schedule.MaxCost
	if baseMaxCost == 0 {
		baseMaxCost = defaultMaxCost(algo.Set)
	}
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
		res, err := findOptimalWith(ctx, algo, s, &schedOpts, analyzer, &innerEnv{stats: stats})
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
	baseMaxCost := opts.Space.Schedule.MaxCost
	if baseMaxCost == 0 {
		baseMaxCost = defaultMaxCost(algo.Set)
	}
	floor := streamingFloor(algo, baseMaxCost)
	if floor < 0 {
		return nil, 0, nil, ErrNoSchedule
	}
	cStar := int64(math.MaxInt64)
	var records []paretoRecord
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
		cctx := newCandCtx(algo, s, &schedOpts, analyzer, nil)
		procs, links := countProcessorImages(s, algo.Set), linkCount(s, algo.D)
		stats.innerSearches.Add(1)
		bestBuf := int64(math.MaxInt64)
		for cost := floor; cost <= baseMaxCost && (cStar == math.MaxInt64 || cost <= cStar+opts.TimeSlack); cost++ {
			stats.costLevels.Add(1)
			var lvlMapping *Mapping
			var lvlBuf int64
			enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
				stats.scheduleCandidates.Add(1)
				if r, ok := cctx.tryWith(pi, nil); ok {
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

// TestLadderMatchesStreamingOnCorpus: at Workers=1, on a seeded corpus
// sample, the joint and Pareto searches reading one shared ladder pick
// the same winners and fronts as the streaming references, with equal
// ScheduleResult.Candidates and equal ScheduleCandidates, CostLevels and
// InnerSearches counters.
func TestLadderMatchesStreamingOnCorpus(t *testing.T) {
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

// TestLadderReadersConcurrent: readers snapshot the ladder while other
// goroutines build levels out of order, so levels land both past the
// published end and in gaps below it. Every level any reader sees —
// from its snapshot or from the ladder — matches the streaming
// reference, and under -race no snapshot observes a slot being written.
func TestLadderReadersConcurrent(t *testing.T) {
	algo := uda.TransitiveClosure(4)
	const maxCost = 30
	want := make([]refLevel, maxCost+1)
	for cost := int64(1); cost <= maxCost; cost++ {
		want[cost] = streamingLevel(algo, cost)
	}
	for round := 0; round < 10; round++ {
		l := newPiLadder(algo)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + g)))
				for _, c := range rng.Perm(maxCost) {
					cost := int64(c + 1)
					r := l.reader()
					lv, err := r.level(context.Background(), cost)
					if err != nil || lv == nil {
						t.Errorf("level %d: %v, %v", cost, lv, err)
						return
					}
					if lv.raw != want[cost].raw || lv.Len() != len(want[cost].pis) {
						t.Errorf("level %d: raw %d with %d passers, want raw %d with %d", cost, lv.raw, lv.Len(), want[cost].raw, len(want[cost].pis))
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
