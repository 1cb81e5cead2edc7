package schedule

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"lodim/internal/array"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

func TestValid(t *testing.T) {
	algo := uda.MatMul(4)
	if !Valid(intmat.Vec(1, 1, 1), algo.D) {
		t.Error("Π = [1 1 1] rejected for D = I")
	}
	if Valid(intmat.Vec(1, 0, 1), algo.D) {
		t.Error("Π with Πd = 0 accepted")
	}
	if Valid(intmat.Vec(-1, 1, 1), algo.D) {
		t.Error("Π with Πd < 0 accepted")
	}
	tc := uda.TransitiveClosure(4)
	if !Valid(intmat.Vec(5, 1, 1), tc.D) {
		t.Error("paper-optimal transitive closure schedule rejected")
	}
	if Valid(intmat.Vec(1, 1, 1), tc.D) {
		t.Error("Π = [1 1 1] accepted for transitive closure (Πd̄_3 = -1)")
	}
}

func TestTotalTime(t *testing.T) {
	set := uda.Cube(3, 4)
	if got := TotalTime(intmat.Vec(1, 4, 1), set); got != 25 {
		t.Errorf("t = %d, want 25 (= μ(μ+2)+1)", got)
	}
	if got := TotalTime(intmat.Vec(-1, 4, 1), set); got != 25 {
		t.Errorf("absolute value not applied: t = %d", got)
	}
	if got := Cost(intmat.Vec(1, 4, 1), set); got != 24 {
		t.Errorf("Cost = %d, want 24", got)
	}
}

func TestNewMappingValidation(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	m, err := NewMapping(algo, s, intmat.Vec(1, 4, 1))
	if err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	if m.K() != 2 || m.TotalTime() != 25 {
		t.Errorf("K = %d, t = %d", m.K(), m.TotalTime())
	}
	if got := m.Processor(intmat.Vec(1, 2, 3)); !got.Equal(intmat.Vec(0)) {
		t.Errorf("Processor = %v", got)
	}
	if got := m.Time(intmat.Vec(1, 2, 3)); got != 1+8+3 {
		t.Errorf("Time = %d", got)
	}
	// ΠD violation.
	if _, err := NewMapping(algo, s, intmat.Vec(0, 1, 1)); err == nil {
		t.Error("ΠD = 0 accepted")
	}
	// Rank deficiency: Π a multiple of S's row.
	if _, err := NewMapping(algo, intmat.FromRows([]int64{1, 1, 1}), intmat.Vec(2, 2, 2)); err == nil {
		t.Error("rank-deficient T accepted")
	}
	// Shape errors.
	if _, err := NewMapping(algo, intmat.FromRows([]int64{1, 1}), intmat.Vec(1, 1, 1)); err == nil {
		t.Error("short S accepted")
	}
	if _, err := NewMapping(algo, s, intmat.Vec(1, 1)); err == nil {
		t.Error("short Π accepted")
	}
}

func TestMappingCheck(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	good, err := NewMapping(algo, s, intmat.Vec(1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := good.Check()
	if err != nil || !res.ConflictFree {
		t.Errorf("optimal mapping not conflict-free: %v %v", res, err)
	}
	bad, err := NewMapping(algo, s, intmat.Vec(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err = bad.Check()
	if err != nil || res.ConflictFree {
		t.Errorf("Π = [1 1 1] reported conflict-free: %v %v", res, err)
	}
}

// TestExample51Procedure reproduces Example 5.1 with Procedure 5.1: the
// matmul algorithm with S = [1,1,-1] and μ = 4 has optimal schedule
// Π° = [1,μ,1] (lexicographically first of the two paper optima) and
// total time t = μ(μ+2)+1 = 25, strictly better than the [23] schedule
// Π' = [2,1,μ] with t' = μ(μ+3)+1 = 29.
func TestExample51Procedure(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	res, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 25 {
		t.Errorf("t = %d, want 25", res.Time)
	}
	if !res.Conflict.ConflictFree {
		t.Error("winning schedule not certified conflict-free")
	}
	// The optimum is not unique: the paper reports the extreme points
	// Π2 = [1,μ,1] and Π3 = [μ,1,1] of its convex subproblems, but
	// interior integral points of the same cost (e.g. [1,2,3]) are also
	// conflict-free. Verify the paper's Π2 is among the optima.
	paper, err := NewMapping(algo, s, intmat.Vec(1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	chk, err := paper.Check()
	if err != nil || !chk.ConflictFree || paper.TotalTime() != res.Time {
		t.Errorf("paper optimum [1 4 1] not confirmed: t=%d, %v, %v", paper.TotalTime(), chk, err)
	}
	// The [23] reference schedule must be feasible but slower.
	ref := TotalTime(intmat.Vec(2, 1, 4), algo.Set)
	if ref != 29 {
		t.Errorf("reference t' = %d, want 29", ref)
	}
	if res.Time >= ref {
		t.Errorf("found schedule (t=%d) does not beat [23] (t'=%d)", res.Time, ref)
	}
}

// TestExample52Procedure reproduces Example 5.2: the transitive closure
// with S = [0,0,1] and μ = 4 has optimal schedule Π° = [μ+1,1,1] and
// total time μ(μ+3)+1 = 29, improving [22]'s Π' = [2μ+1,1,1] with
// t' = μ(2μ+3)+1 = 45.
func TestExample52Procedure(t *testing.T) {
	mu := int64(4)
	algo := uda.TransitiveClosure(mu)
	s := intmat.FromRows([]int64{0, 0, 1})
	res, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := mu*(mu+3) + 1; res.Time != want {
		t.Errorf("t = %d, want %d", res.Time, want)
	}
	if !res.Mapping.Pi.Equal(intmat.Vec(mu+1, 1, 1)) {
		t.Errorf("Π = %v, want [%d 1 1]", res.Mapping.Pi, mu+1)
	}
	// [22] reference.
	if ref := TotalTime(intmat.Vec(2*mu+1, 1, 1), algo.Set); ref != mu*(2*mu+3)+1 {
		t.Errorf("reference t' = %d", ref)
	}
}

// TestILPMatchesProcedure: the two engines must agree on the optimum
// for the paper's examples and for additional algorithm/space-mapping
// pairs (the X3 ablation).
func TestILPMatchesProcedure(t *testing.T) {
	cases := []struct {
		algo *uda.Algorithm
		s    *intmat.Matrix
	}{
		{uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(3), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(5), intmat.FromRows([]int64{1, 1, -1})},
		{uda.TransitiveClosure(4), intmat.FromRows([]int64{0, 0, 1})},
		{uda.TransitiveClosure(2), intmat.FromRows([]int64{0, 0, 1})},
		// Convolution mapped to a single processor: S has zero rows and
		// T = Π ∈ Z^{1×2} must be injective on the index set.
		{uda.Convolution(6, 3), intmat.New(0, 2)},
		{uda.LU(4), intmat.FromRows([]int64{1, 1, -1})},
	}
	for _, c := range cases {
		proc, err := FindOptimal(c.algo, c.s, nil)
		if err != nil {
			t.Fatalf("%s: procedure: %v", c.algo.Name, err)
		}
		ilpRes, err := FindOptimalILP(c.algo, c.s, nil)
		if err != nil {
			t.Fatalf("%s: ILP: %v", c.algo.Name, err)
		}
		if proc.Time != ilpRes.Time {
			t.Errorf("%s μ=%v: procedure t=%d (Π=%v), ILP t=%d (Π=%v)",
				c.algo.Name, c.algo.Set.Upper, proc.Time, proc.Mapping.Pi, ilpRes.Time, ilpRes.Mapping.Pi)
		}
		// Both must be genuinely conflict-free.
		for _, r := range []*Result{proc, ilpRes} {
			chk, err := r.Mapping.Check()
			if err != nil || !chk.ConflictFree {
				t.Errorf("%s: %s result not conflict-free: %v %v", c.algo.Name, r.Method, chk, err)
			}
		}
	}
}

// TestExample51WithMachine adds the linear-array realizability
// condition; the optimum is unchanged (the optimal design is 1-hop).
func TestExample51WithMachine(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	opts := &Options{Machine: array.NearestNeighbor(1)}
	res, err := FindOptimal(algo, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 25 {
		t.Errorf("t = %d, want 25", res.Time)
	}
	if res.Decomp == nil {
		t.Fatal("no decomposition attached")
	}
	if res.Decomp.TotalBuffers() != 3 {
		t.Errorf("buffers = %d, want 3", res.Decomp.TotalBuffers())
	}
	if !res.Decomp.SingleHop() {
		t.Error("design not single-hop")
	}
}

// TestRequireSingleHop: with a multi-hop space mapping S = [2,1,-1],
// the option must force the optimizer past designs needing several
// primitive hops per transfer — or report no solution if none exists.
func TestRequireSingleHop(t *testing.T) {
	algo := uda.MatMul(3)
	machine := array.NearestNeighbor(1)
	// The standard S = [1,1,-1] design is 1-hop: the optimum is
	// unchanged with the option on.
	s := intmat.FromRows([]int64{1, 1, -1})
	plain, err := FindOptimal(algo, s, &Options{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := FindOptimal(algo, s, &Options{Machine: machine, RequireSingleHop: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != strict.Time {
		t.Errorf("single-hop option changed the optimum: %d vs %d", plain.Time, strict.Time)
	}
	if !strict.Decomp.SingleHop() {
		t.Error("strict winner not single-hop")
	}
	// S = [2,1,-1] forces 2 hops on d̄_1; the strict search must reject
	// every schedule (the hop count is Π-independent).
	s2 := intmat.FromRows([]int64{2, 1, -1})
	if _, err := FindOptimal(algo, s2, &Options{Machine: machine, RequireSingleHop: true, MaxCost: 60}); err == nil {
		t.Error("multi-hop design accepted under RequireSingleHop")
	}
	// Without the option it is realizable (buffers absorb the hops).
	if _, err := FindOptimal(algo, s2, &Options{Machine: machine}); err != nil {
		t.Errorf("relaxed search failed: %v", err)
	}
}

// TestFindSpaceMappingRequireSingleHop: Problem 6.1 honours
// RequireSingleHop as Procedure 5.1 does. On matmul μ = 3 with
// Π = (2, 1, 1) and entries up to 2, the cheapest S the linear array
// realizes, (2, −1, 0), needs two hops for one transfer, and no S the
// array realizes in single hops is conflict-free: under the option the
// search, with pruning or without, must report that no mapping exists.
func TestFindSpaceMappingRequireSingleHop(t *testing.T) {
	algo := uda.MatMul(3)
	pi := intmat.Vec(2, 1, 1)
	machine := array.NearestNeighbor(1)
	opts := &SpaceOptions{MaxEntry: 2, Schedule: Options{Machine: machine}}
	plain, err := FindSpaceMapping(algo, pi, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := machine.Decompose(plain.Mapping.S, algo.D, pi)
	if err != nil || dec.SingleHop() {
		t.Fatalf("plain winner S = %v: single-hop %v, err %v; want a multi-hop realization", plain.Mapping.S, err == nil && dec.SingleHop(), err)
	}
	opts.Schedule.RequireSingleHop = true
	for _, noPrune := range []bool{false, true} {
		opts.NoPrune = noPrune
		res, err := FindSpaceMapping(algo, pi, 1, opts)
		if err == nil {
			t.Errorf("NoPrune %v: got S = %v, want ErrNoSchedule", noPrune, res.Mapping.S)
		} else if !errors.Is(err, ErrNoSchedule) {
			t.Errorf("NoPrune %v: %v, want ErrNoSchedule", noPrune, err)
		}
	}
}

func TestFindOptimalNoSolution(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	_, err := FindOptimal(algo, s, &Options{MaxCost: 3})
	if !errors.Is(err, ErrNoSchedule) {
		t.Errorf("err = %v, want ErrNoSchedule", err)
	}
	// The top-level message names the algorithm, S and the cost bound.
	want := ErrNoSchedule.Error() + ": algorithm \"matmul\", S =\n" + s.String() + ", cost ≤ 3"
	if err == nil || err.Error() != want {
		t.Errorf("message %q, want %q", err, want)
	}
}

func TestFindOptimalShapeError(t *testing.T) {
	algo := uda.MatMul(4)
	if _, err := FindOptimal(algo, intmat.FromRows([]int64{1, 1}), nil); err == nil {
		t.Error("short S accepted")
	}
	if _, err := FindOptimalILP(algo, intmat.FromRows([]int64{1, 1, -1}, []int64{0, 1, 0}), nil); err == nil {
		t.Error("ILP accepted S with wrong row count")
	}
}

func TestEnumerateExactCost(t *testing.T) {
	mu := intmat.Vec(1, 2)
	var got []string
	enumerate(mu, 2, func(pi intmat.Vector) bool {
		got = append(got, pi.String())
		return true
	})
	// Σ|π_i|·μ_i = 2 with μ = (1,2): (±2, 0), (0, ±1).
	want := map[string]bool{"[-2 0]": true, "[2 0]": true, "[0 -1]": true, "[0 1]": true}
	if len(got) != len(want) {
		t.Fatalf("enumerated %v, want the 4 vectors %v", got, want)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected vector %s", g)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	mu := intmat.Vec(1, 1)
	count := 0
	completed := enumerate(mu, 2, func(pi intmat.Vector) bool {
		count++
		return count < 2
	})
	if completed || count != 2 {
		t.Errorf("completed=%v count=%d", completed, count)
	}
}

func TestResultString(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	res, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

// TestFindOptimalIsTrulyOptimal cross-checks the optimizer's answer
// against a definitional search: enumerate every Π up to the found
// cost, test conflict-freeness by brute force over the index set, and
// confirm nothing cheaper passes. Run on small instances only.
func TestFindOptimalIsTrulyOptimal(t *testing.T) {
	cases := []struct {
		algo *uda.Algorithm
		s    *intmat.Matrix
	}{
		{uda.MatMul(2), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(3), intmat.FromRows([]int64{1, 1, -1})},
		{uda.TransitiveClosure(2), intmat.FromRows([]int64{0, 0, 1})},
		{uda.Convolution(3, 2), intmat.FromRows([]int64{1, -1})},
		{uda.EditDistance(3, 3), intmat.FromRows([]int64{1, 0})},
		{uda.SOR(3, 3), intmat.FromRows([]int64{0, 1})},
	}
	for _, c := range cases {
		res, err := FindOptimal(c.algo, c.s, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.algo.Name, err)
		}
		// Definitional check: no strictly cheaper Π may be valid.
		for cost := int64(1); cost < res.Time-1; cost++ {
			enumerate(c.algo.Set.Upper, cost, func(pi intmat.Vector) bool {
				if !Valid(pi, c.algo.D) {
					return true
				}
				T := c.s.AppendRow(pi)
				if T.Rank() != T.Rows() {
					return true
				}
				if free, _ := conflict.BruteForce(T, c.algo.Set); free {
					t.Errorf("%s: Π = %v at cost %d beats claimed optimum %d",
						c.algo.Name, pi, cost, res.Time-1)
					return false
				}
				return true
			})
		}
		// And the winner itself must be genuinely conflict-free.
		if free, w := conflict.BruteForce(res.Mapping.T, c.algo.Set); !free {
			t.Errorf("%s: winner has conflict %v", c.algo.Name, w)
		}
	}
}

// TestParallelSearchDeterministic: FindOptimal returns exactly the
// sequential result — value, Candidates and the ScheduleCandidates
// counter — for every worker count.
func TestParallelSearchDeterministic(t *testing.T) {
	cases := []struct {
		algo *uda.Algorithm
		s    *intmat.Matrix
	}{
		{uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1})},
		{uda.TransitiveClosure(4), intmat.FromRows([]int64{0, 0, 1})},
		{uda.BitLevelConvolution(3, 2, 2), intmat.FromRows([]int64{1, 1, 0, 0})},
	}
	for _, c := range cases {
		seq, err := FindOptimal(c.algo, c.s, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.algo.Name, err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := FindOptimal(c.algo, c.s, &Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.algo.Name, workers, err)
			}
			if par.Time != seq.Time || !par.Mapping.Pi.Equal(seq.Mapping.Pi) {
				t.Errorf("%s workers=%d: Π=%v t=%d, sequential Π=%v t=%d",
					c.algo.Name, workers, par.Mapping.Pi, par.Time, seq.Mapping.Pi, seq.Time)
			}
			if par.Candidates != seq.Candidates || par.Stats.ScheduleCandidates != seq.Stats.ScheduleCandidates {
				t.Errorf("%s workers=%d: %d candidates (stats %d), sequential %d (stats %d)", c.algo.Name, workers,
					par.Candidates, par.Stats.ScheduleCandidates, seq.Candidates, seq.Stats.ScheduleCandidates)
			}
		}
	}
}

// TestMinimizeBuffers: the tie-break picks an equal-time schedule with
// the fewest buffers. For the transitive closure at μ = 4 the optimum
// cost level contains schedules with different buffer totals.
func TestMinimizeBuffers(t *testing.T) {
	algo := uda.TransitiveClosure(4)
	s := intmat.FromRows([]int64{0, 0, 1})
	machine := array.NearestNeighbor(1)
	plain, err := FindOptimal(algo, s, &Options{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	best, err := FindOptimal(algo, s, &Options{Machine: machine, MinimizeBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	if best.Time != plain.Time {
		t.Fatalf("tie-break changed the optimal time: %d vs %d", best.Time, plain.Time)
	}
	if best.Decomp.TotalBuffers() > plain.Decomp.TotalBuffers() {
		t.Errorf("MinimizeBuffers chose %d buffers, plain search found %d",
			best.Decomp.TotalBuffers(), plain.Decomp.TotalBuffers())
	}
	// Exhaustive confirmation: no equal-cost schedule beats the winner.
	minBuf := best.Decomp.TotalBuffers()
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		t.Fatal(err)
	}
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	var errs firstErr
	enumerate(algo.Set.Upper, best.Time-1, func(pi intmat.Vector) bool {
		if !Valid(pi, algo.D) {
			return true
		}
		p, ok := step5(algo, &Options{Machine: machine}, analyzer, sc, &sc.Memo, &errs, pi)
		if ok && p.decomp.TotalBuffers() < minBuf {
			t.Errorf("Π = %v has %d buffers < winner's %d", pi, p.decomp.TotalBuffers(), minBuf)
			return false
		}
		return true
	})
	// Without a machine the option errors.
	if _, err := FindOptimal(algo, s, &Options{MinimizeBuffers: true}); err == nil {
		t.Error("MinimizeBuffers without Machine accepted")
	}
}

// referenceResult is what referenceSearch finds.
type referenceResult struct {
	pi         intmat.Vector
	time       int64
	candidates int
	conflict   conflict.Result
}

// referenceSearch is a plain Procedure 5.1 to check the engine
// against: it streams enumerate over the levels 1, 2, … up to the
// default cost ceiling and decides each Π passing ΠD > 0 with a full
// conflict.Decide of T = [S; Π] (ErrRank rejects Π), counting the Π it
// decides. No factored analyzer, scratch, table or cache is involved.
func referenceSearch(t testing.TB, algo *uda.Algorithm, s *intmat.Matrix) referenceResult {
	t.Helper()
	maxCost := maxCostOr(0, algo.Set)
	candidates := 0
	for cost := int64(1); cost <= maxCost; cost++ {
		var found *referenceResult
		enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
			if !Valid(pi, algo.D) {
				return true
			}
			candidates++
			res, err := conflict.Decide(s.AppendRow(pi), algo.Set)
			if errors.Is(err, conflict.ErrRank) {
				return true
			}
			if err != nil {
				t.Fatalf("%s: Decide(Π = %v): %v", algo.Name, pi, err)
			}
			if !res.ConflictFree {
				return true
			}
			found = &referenceResult{pi: pi.Clone(), time: TotalTime(pi, algo.Set), candidates: candidates, conflict: res}
			return false
		})
		if found != nil {
			return *found
		}
	}
	t.Fatalf("%s: reference search found no schedule up to cost %d", algo.Name, maxCost)
	return referenceResult{}
}

// referenceProcedure51 is Procedure 5.1 for one S as FindOptimal ran it
// before the level walk: each level walked by a piWalker, its passers
// tested in walk order with one scratch, until the first conflict-free
// one (the fewest-buffer one of the level under MinimizeBuffers),
// counting the passers it tests. It returns nil when no level up to
// MaxCost has one.
func referenceProcedure51(t testing.TB, algo *uda.Algorithm, s *intmat.Matrix, opts *Options) *Result {
	t.Helper()
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		t.Fatal(err)
	}
	wk := getWalker(algo)
	defer putWalker(wk)
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	var errs firstErr
	candidates := int64(0)
	for cost := max(opts.MinCost, 1); cost <= maxCostOr(opts.MaxCost, algo.Set); cost++ {
		var found *Result
		err := wk.walk(context.Background(), cost, func(pi intmat.Vector) bool {
			candidates++
			p, ok := step5(algo, opts, analyzer, sc, &sc.Memo, &errs, pi)
			if ok && (found == nil || p.decomp.TotalBuffers() < found.Decomp.TotalBuffers()) {
				found = p.result(algo, s, pi)
			}
			return !ok || opts.MinimizeBuffers
		})
		if err == nil {
			err = errs.takeErr()
		}
		if err != nil {
			t.Fatalf("%s: S =\n%v: %v", algo.Name, s, err)
		}
		if found != nil {
			found.Candidates, found.Method = int(candidates), "procedure-5.1"
			return found
		}
	}
	return nil
}

// referenceJoint is the S-major joint search that the level walk
// replaced, at one worker: one referenceProcedure51 search per orbit
// representative S in candidate order, each bounded by the best time
// found so far, and, once that time reaches the first level holding a
// ΠD ≥ 1 passer, S whose cost lower bound loses to the incumbent
// skipped. It returns nil when no S has a schedule.
func referenceJoint(t testing.TB, algo *uda.Algorithm, dims int, opts *SpaceOptions) *JointResult {
	t.Helper()
	cands, err := collectSpaceMappings(algo.Dim(), dims, maxEntryOrDefault(opts))
	if err != nil {
		t.Fatal(err)
	}
	symPruned := symmetryPruned(cands, axisAutomorphismsByKey(algo, nil))
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
			continue
		}
		wire := wireLength(s, algo.D)
		costLB := processorLowerBound(s, algo.Set.Upper) + weight*wire
		if tFloor > 0 && incT <= tFloor && costLB > incC {
			continue
		}
		schedOpts := opts.Schedule
		schedOpts.MaxCost = min(baseMaxCost, incT-1)
		res := referenceProcedure51(t, algo, s, &schedOpts)
		if res == nil || res.Time == incT && costLB > incC {
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
	if best != nil {
		best.Candidates = len(cands)
	}
	return best
}

// jointIdentity is every field of a joint result that the level walk
// must reproduce from referenceJoint: the mapping, its metrics, the
// winner's Procedure 5.1 count and method, and its conflict method.
func jointIdentity(r *JointResult) string {
	if r == nil {
		return "no schedule"
	}
	return fmt.Sprintf("%s method=%s conflict=%s", jointFingerprint(r), r.ScheduleResult.Method, r.ScheduleResult.Conflict.Method)
}

// TestJointWalkMatchesReferenceOnCorpus: on every corpus problem that
// differs from the others by its exact bounds, dependences and search
// knobs (a sample under -short or -race), the level walk at one and two workers
// agrees with referenceJoint on S, Π, time, processors, wire, cost,
// space and schedule candidate counts, and methods; and FindOptimal on
// the winning S, at one, two and four workers, agrees with
// referenceProcedure51 on Π, time, candidate count and methods.
func TestJointWalkMatchesReferenceOnCorpus(t *testing.T) {
	problems := distinctCorpus(t)
	if testing.Short() || intmat.RaceEnabled {
		problems = corpusSample(t, 6, 21)
	}
	for _, p := range problems {
		algo := p.algorithm()
		ref := referenceJoint(t, algo, p.Dims, &SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost}})
		want := jointIdentity(ref)
		for _, workers := range []int{1, 2} {
			opts := &SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost, Workers: workers}}
			res, err := FindJointMapping(algo, p.Dims, opts)
			if err != nil && !errors.Is(err, ErrNoSchedule) {
				t.Fatalf("%s workers=%d: %v", p.ID, workers, err)
			}
			if got := jointIdentity(res); got != want {
				t.Fatalf("%s workers=%d:\n got %s\nwant %s", p.ID, workers, got, want)
			}
			if res != nil && res.Stats.Engine != "joint-6.2" {
				t.Fatalf("%s workers=%d: engine %q", p.ID, workers, res.Stats.Engine)
			}
		}
		if ref == nil {
			continue
		}
		s := ref.Mapping.S
		want = resultIdentity(referenceProcedure51(t, algo, s, &Options{MaxCost: p.MaxCost}))
		for _, workers := range []int{1, 2, 4} {
			res, err := FindOptimal(algo, s, &Options{MaxCost: p.MaxCost, Workers: workers})
			if err != nil {
				t.Fatalf("%s FindOptimal workers=%d: %v", p.ID, workers, err)
			}
			if got := resultIdentity(res); got != want || res.Stats.ScheduleCandidates != int64(res.Candidates) {
				t.Fatalf("%s FindOptimal workers=%d:\n got %s (stats %d)\nwant %s", p.ID, workers, got, res.Stats.ScheduleCandidates, want)
			}
		}
	}
}

// resultIdentity is every field of a Procedure 5.1 result that
// FindOptimal must reproduce from referenceProcedure51.
func resultIdentity(r *Result) string {
	return fmt.Sprintf("Pi=%v t=%d cands=%d method=%s conflict=%s", r.Mapping.Pi, r.Time, r.Candidates, r.Method, r.Conflict.Method)
}

// TestJointWalkMatchesReferenceSmallChunks: with chunks of one
// passer, the walk closes S by cost, and stops, between passers of the
// final level; on the distinct corpus problems (a sample under -short
// or -race)
// it still agrees with referenceJoint at one and two workers.
func TestJointWalkMatchesReferenceSmallChunks(t *testing.T) {
	defer func(n int) { walkChunk = n }(walkChunk)
	walkChunk = 1
	problems := distinctCorpus(t)
	if testing.Short() || intmat.RaceEnabled {
		problems = corpusSample(t, 4, 5)
	}
	for _, p := range problems {
		algo := p.algorithm()
		want := jointIdentity(referenceJoint(t, algo, p.Dims, &SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost}}))
		for _, workers := range []int{1, 2} {
			res, err := FindJointMapping(algo, p.Dims, &SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost, Workers: workers}})
			if err != nil && !errors.Is(err, ErrNoSchedule) {
				t.Fatalf("%s workers=%d: %v", p.ID, workers, err)
			}
			if got := jointIdentity(res); got != want {
				t.Fatalf("%s workers=%d:\n got %s\nwant %s", p.ID, workers, got, want)
			}
		}
	}
}

// TestJointWalkMatchesReferenceOptions: with a machine, with single-hop
// transfers required, and with the fewest-buffer tie-break, on two
// library algorithms and with chunks of 1 and 256 passers, the level
// walk agrees with referenceJoint.
func TestJointWalkMatchesReferenceOptions(t *testing.T) {
	defer func(n int) { walkChunk = n }(walkChunk)
	machine := array.NearestNeighbor(1)
	for _, algo := range []*uda.Algorithm{uda.MatMul(4), uda.TransitiveClosure(4)} {
		for _, sched := range []Options{
			{Machine: machine},
			{Machine: machine, RequireSingleHop: true},
			{Machine: machine, MinimizeBuffers: true},
		} {
			want := jointIdentity(referenceJoint(t, algo, 1, &SpaceOptions{Schedule: sched}))
			for _, walkChunk = range []int{1, 256} {
				for _, workers := range []int{1, 2} {
					opts := &SpaceOptions{Schedule: sched}
					opts.Schedule.Workers = workers
					res, err := FindJointMapping(algo, 1, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", algo.Name, sched, err)
					}
					if got := jointIdentity(res); got != want {
						t.Fatalf("%s %+v chunk=%d workers=%d:\n got %s\nwant %s", algo.Name, sched, walkChunk, workers, got, want)
					}
				}
			}
		}
	}
}

// TestFactoredSearchMatchesReference: the factored engine, with its
// scratch, table and cache, finds the reference search's Π, time and
// candidate count.
func TestFactoredSearchMatchesReference(t *testing.T) {
	cases := []struct {
		algo *uda.Algorithm
		s    *intmat.Matrix
	}{
		{uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1})},
		{uda.TransitiveClosure(4), intmat.FromRows([]int64{0, 0, 1})},
		{uda.BitLevelConvolution(3, 2, 2), intmat.FromRows([]int64{1, 0, 0, 0}, []int64{0, 1, 0, 0})},
	}
	for _, c := range cases {
		fast, err := FindOptimal(c.algo, c.s, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.algo.Name, err)
		}
		slow := referenceSearch(t, c.algo, c.s)
		if fast.Time != slow.time || !fast.Mapping.Pi.Equal(slow.pi) {
			t.Errorf("%s: factored (Π=%v t=%d) vs reference (Π=%v t=%d)",
				c.algo.Name, fast.Mapping.Pi, fast.Time, slow.pi, slow.time)
		}
		if fast.Candidates != slow.candidates {
			t.Errorf("%s: candidate counts differ: %d vs %d", c.algo.Name, fast.Candidates, slow.candidates)
		}
	}
}

func BenchmarkProcedure51Factored(b *testing.B) {
	// A k = n−2 instance (4-D bit-level convolution into a 1-D array):
	// the codimension-2 regime is where the factored analysis pays off,
	// since the full path (referenceSearch) needs a complete Hermite
	// decomposition per candidate while the factored path runs one
	// single-row reduction.
	algo := uda.BitLevelConvolution(3, 2, 2)
	s := intmat.FromRows([]int64{1, 1, 0, 0})
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FindOptimal(algo, s, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-hnf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceSearch(b, algo, s)
		}
	})
}

func BenchmarkProcedure51Matmul(b *testing.B) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindOptimal(algo, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILPMatmul(b *testing.B) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindOptimalILP(algo, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeepNullSpaceOptimum is the regression test for exact decisions
// that used to fail on their point budget and count as conflicts: for
// n = 7, D = I, μ = 2 and S = (1 3 9 27 81 243 729), null(S) has
// dimension 6, and 3476 ΠD ≥ 1 passers reach the exact step. Each
// must be decided, so Π = (1, …, 1), with t = 15, is the optimum.
func TestDeepNullSpaceOptimum(t *testing.T) {
	algo := &uda.Algorithm{Name: "deep-null-space", Set: uda.Cube(7, 2), D: intmat.Identity(7)}
	s := intmat.FromRows([]int64{1, 3, 9, 27, 81, 243, 729})
	res, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 15 || !res.Mapping.Pi.Equal(intmat.Vec(1, 1, 1, 1, 1, 1, 1)) {
		t.Fatalf("Π = %v, t = %d; want Π = (1, …, 1), t = 15", res.Mapping.Pi, res.Time)
	}
	if free, w := conflict.BruteForce(res.Mapping.T, algo.Set); !free {
		t.Fatalf("winner has conflict %v", w)
	}
}
