package schedule

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestSearchStatsProcedure51 checks the pure Procedure 5.1 stats: the
// engine owns its collector, counts every enumerated candidate and cost
// level, and the snapshot agrees with the legacy Candidates field.
func TestSearchStatsProcedure51(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	res, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("Result.Stats is nil")
	}
	if st.Engine != "procedure-5.1" {
		t.Errorf("engine = %q", st.Engine)
	}
	if st.Workers != 1 {
		t.Errorf("workers = %d, want 1", st.Workers)
	}
	if st.ScheduleCandidates != int64(res.Candidates) {
		t.Errorf("ScheduleCandidates = %d, Candidates = %d", st.ScheduleCandidates, res.Candidates)
	}
	if st.CostLevels < 1 || st.ScheduleCandidates < 1 {
		t.Errorf("levels = %d, candidates = %d, want ≥ 1", st.CostLevels, st.ScheduleCandidates)
	}
	if st.Total <= 0 || st.Search <= 0 {
		t.Errorf("durations total=%v search=%v, want > 0", st.Total, st.Search)
	}
	if st.SpaceCandidates != 0 || st.Pruned() != 0 {
		t.Errorf("pure schedule search reported space stats: %+v", st)
	}
}

// TestSearchStatsJoint checks the joint Problem 6.2 stats on the matmul
// example: every pruning rule fires, inner searches aggregate, and the
// stats are shared between SpaceResult and ScheduleResult.
func TestSearchStatsJoint(t *testing.T) {
	algo := uda.MatMul(4)
	res, err := FindJointMapping(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("SpaceResult.Stats is nil")
	}
	if st.Engine != "joint-6.2" {
		t.Errorf("engine = %q", st.Engine)
	}
	if res.ScheduleResult.Stats != st {
		t.Error("ScheduleResult.Stats not shared with SpaceResult.Stats")
	}
	if st.SpaceCandidates != int64(res.Candidates) {
		t.Errorf("SpaceCandidates = %d, Candidates = %d", st.SpaceCandidates, res.Candidates)
	}
	// The matmul cube is symmetric and heavily prunable: both the orbit
	// rule and the lower bound must have fired, the level walk has no
	// incumbent cut, and the per-rule split reconciles with the legacy
	// Pruned counter.
	if st.PrunedOrbit < 1 || st.PrunedLowerBound < 1 {
		t.Errorf("PrunedOrbit = %d, PrunedLowerBound = %d, want ≥ 1", st.PrunedOrbit, st.PrunedLowerBound)
	}
	if st.PrunedIncumbent != 0 {
		t.Errorf("PrunedIncumbent = %d, want 0", st.PrunedIncumbent)
	}
	if got := st.PrunedOrbit + st.PrunedLowerBound; got != int64(res.Pruned) {
		t.Errorf("orbit+lb = %d, legacy Pruned = %d", got, res.Pruned)
	}
	if st.InnerSearches < 1 || st.ScheduleCandidates < 1 || st.CostLevels < 1 {
		t.Errorf("inner effort empty: %+v", st)
	}
	if st.Total <= 0 || st.Search <= 0 {
		t.Errorf("durations total=%v search=%v, want > 0", st.Total, st.Search)
	}
	if s := st.String(); !strings.Contains(s, "engine=joint-6.2") || !strings.Contains(s, "pruned(") {
		t.Errorf("String() = %q", s)
	}
}

// TestSearchStatsSpace checks the Problem 6.1 stats.
func TestSearchStatsSpace(t *testing.T) {
	algo := uda.MatMul(4)
	res, err := FindSpaceMapping(algo, intmat.Vec(1, 4, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("SpaceResult.Stats is nil")
	}
	if st.Engine != "space-6.1" {
		t.Errorf("engine = %q", st.Engine)
	}
	if st.SpaceCandidates != int64(res.Candidates) {
		t.Errorf("SpaceCandidates = %d, Candidates = %d", st.SpaceCandidates, res.Candidates)
	}
	if got := st.Pruned(); got != int64(res.Pruned) {
		t.Errorf("Stats.Pruned() = %d, legacy Pruned = %d", got, res.Pruned)
	}
	if st.InnerSearches != 0 || st.ScheduleCandidates != 0 {
		t.Errorf("fixed-Π search reported schedule stats: %+v", st)
	}
}

// TestSearchStatsDeterministicCounts: the exact counters (candidates,
// levels, orbit pruning) must not depend on worker scheduling.
func TestSearchStatsDeterministicCounts(t *testing.T) {
	algo := uda.MatMul(4)
	seq, err := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.SpaceCandidates != par.Stats.SpaceCandidates {
		t.Errorf("space candidates differ: %d vs %d", seq.Stats.SpaceCandidates, par.Stats.SpaceCandidates)
	}
	if seq.Stats.PrunedOrbit != par.Stats.PrunedOrbit {
		t.Errorf("orbit pruning differs: %d vs %d", seq.Stats.PrunedOrbit, par.Stats.PrunedOrbit)
	}
	if par.Stats.Workers != 4 {
		t.Errorf("parallel run reports workers = %d", par.Stats.Workers)
	}
}

// TestSearchStatsHNFCounters: the factored engines route decisions
// through the per-worker scratch, and the table/incremental/from-scratch
// split must land in the stats. On the matmul search many candidates
// share h lines (shifting Π by a row of S leaves h = Π·W unchanged),
// so a healthy cache shows plenty of incremental decisions.
func TestSearchStatsHNFCounters(t *testing.T) {
	algo := uda.MatMul(6)
	s := intmat.FromRows([]int64{1, 1, -1})
	res, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.HNFFromScratch < 1 {
		t.Fatalf("HNFFromScratch = %d, want ≥ 1 (stats: %+v)", st.HNFFromScratch, st)
	}
	if st.HNFIncremental < 1 {
		t.Fatalf("HNFIncremental = %d, want ≥ 1 — the decision cache never hit (stats: %+v)", st.HNFIncremental, st)
	}
	if !strings.Contains(st.String(), "hnf(incremental=") {
		t.Errorf("String() lacks hnf counters: %q", st.String())
	}
	// null(S) has dimension 2 here, too small for a conflict-vector
	// table. With S = (1, 1, 0, 0) on the 4-D bit-level convolution it
	// has dimension 3, and the table finds most conflicting Π.
	if st.ConflictTable != 0 {
		t.Fatalf("ConflictTable = %d with a 2-dimensional null(S) (stats: %+v)", st.ConflictTable, st)
	}
	bit, err := FindOptimal(uda.BitLevelConvolution(4, 3, 3), intmat.FromRows([]int64{1, 1, 0, 0}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bit.Stats.ConflictTable < 1 {
		t.Fatalf("ConflictTable = %d, want ≥ 1 (stats: %+v)", bit.Stats.ConflictTable, bit.Stats)
	}
	if !strings.Contains(bit.Stats.String(), "conflict_table=") {
		t.Errorf("String() lacks the table counter: %q", bit.Stats.String())
	}

	// The joint search shares one collector across inner searches; the
	// counters must aggregate there too.
	joint, err := FindJointMapping(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if joint.Stats.HNFFromScratch < 1 {
		t.Errorf("joint HNFFromScratch = %d, want ≥ 1", joint.Stats.HNFFromScratch)
	}

	// The table answers a conflict without changing what the search
	// finds: the reference search, which decides every Π with a full
	// conflict.Decide, finds the same winner after as many candidates.
	plain := referenceSearch(t, bit.Mapping.Algo, bit.Mapping.S)
	if !bit.Mapping.Pi.Equal(plain.pi) || bit.Time != plain.time || bit.Candidates != plain.candidates {
		t.Errorf("table run found Π=%v t=%d after %d candidates, reference Π=%v t=%d after %d",
			bit.Mapping.Pi, bit.Time, bit.Candidates, plain.pi, plain.time, plain.candidates)
	}
}

// TestScratchSearchMatchesUncached: the scratch cache must not change
// what the search finds — same Π, time, conflict verdict, and effort
// counters as the uncached reference search.
func TestScratchSearchMatchesUncached(t *testing.T) {
	cases := []struct {
		algo *uda.Algorithm
		s    *intmat.Matrix
	}{
		{uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(6), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(4), intmat.FromRows([]int64{1, 0, 0})},
	}
	for _, c := range cases {
		cached, err := FindOptimal(c.algo, c.s, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain := referenceSearch(t, c.algo, c.s)
		if !cached.Mapping.Pi.Equal(plain.pi) {
			t.Fatalf("winner differs: cached Π=%v, plain Π=%v", cached.Mapping.Pi, plain.pi)
		}
		if cached.Time != plain.time || cached.Candidates != plain.candidates {
			t.Fatalf("effort differs: cached (t=%d, cand=%d) plain (t=%d, cand=%d)",
				cached.Time, cached.Candidates, plain.time, plain.candidates)
		}
		if cached.Conflict.ConflictFree != plain.conflict.ConflictFree {
			t.Fatalf("conflict verdict differs for Π=%v", cached.Mapping.Pi)
		}
	}
}

// TestTotalTimeOverflow is the regression test for the unchecked
// t += p·μ_i wrap: the checked arithmetic must refuse instead of
// returning a negative total time that wins incumbent comparisons.
func TestTotalTimeOverflow(t *testing.T) {
	set := uda.Box(math.MaxInt64/2, 1)
	pi := intmat.Vec(3, 1)
	if _, err := TotalTimeChecked(pi, set); err == nil {
		t.Fatal("TotalTimeChecked: want overflow error")
	} else {
		var oe *intmat.OverflowError
		if !errors.As(err, &oe) {
			t.Fatalf("error %v is not *intmat.OverflowError", err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TotalTime: want overflow panic")
		}
	}()
	TotalTime(pi, set)
}

// TestTotalTimeCheckedAgreement: on in-range inputs the checked form
// agrees with the panicking one, including the |MinInt64|-free path.
func TestTotalTimeCheckedAgreement(t *testing.T) {
	set := uda.Box(4, 4, 4)
	pi := intmat.Vec(-1, 2, -3)
	got, err := TotalTimeChecked(pi, set)
	if err != nil {
		t.Fatal(err)
	}
	if want := TotalTime(pi, set); got != want {
		t.Errorf("checked = %d, plain = %d", got, want)
	}
	if got != 25 {
		t.Errorf("t = %d, want 25", got)
	}
	m, err := NewMapping(uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1}), intmat.Vec(1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := m.TotalTimeChecked()
	if err != nil || mt != m.TotalTime() {
		t.Errorf("method form: t = %d err = %v, want %d", mt, err, m.TotalTime())
	}
}

// TestCandCtxCapturesOverflow: try runs inside worker goroutines where
// an overflow panic would crash the process; the candidate context must
// capture it as an error instead, and the engine surface it via
// takeErr.
func TestCandCtxCapturesOverflow(t *testing.T) {
	huge := int64(math.MaxInt64 - 1)
	algo := &uda.Algorithm{
		Name: "overflow-probe",
		Set:  uda.Box(huge, 1),
		D:    intmat.Identity(2),
	}
	if err := algo.Validate(); err != nil {
		t.Fatal(err)
	}
	s := intmat.FromRows([]int64{0, 1})
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		t.Fatal(err)
	}
	cctx := newCandCtx(algo, s, &Options{}, analyzer, nil)
	// Π = (3, 1) passes ΠD > 0, full rank and conflict-freeness
	// (T = [[0,1],[3,1]] is nonsingular, hence injective), but its
	// total time 1 + 3·(2^63 − 2) + 1 overflows int64.
	pi := intmat.Vec(3, 1)
	if _, ok := cctx.try(pi); ok {
		t.Fatal("overflowing candidate reported success")
	}
	err = cctx.takeErr()
	var oe *intmat.OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("takeErr() = %v, want *intmat.OverflowError", err)
	}
}

// TestFindSpaceMappingOverflow: the fixed-Π search evaluates TotalTime
// inside worker goroutines; the hoisted pre-check must convert an
// overflowing (Π, μ) pair into an error before the fan-out.
func TestFindSpaceMappingOverflow(t *testing.T) {
	huge := int64(math.MaxInt64 - 1)
	algo := &uda.Algorithm{
		Name: "overflow-probe",
		Set:  uda.Box(huge, 1),
		D:    intmat.Identity(2),
	}
	_, err := FindSpaceMapping(algo, intmat.Vec(3, 1), 1, nil)
	var oe *intmat.OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("FindSpaceMapping = %v, want *intmat.OverflowError", err)
	}
}
