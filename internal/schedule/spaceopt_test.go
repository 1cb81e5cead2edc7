package schedule

import (
	"errors"
	"testing"

	"lodim/internal/array"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestFindSpaceMappingMatmul solves Problem 6.1 for the matmul schedule
// Π = [1, 4, 1] of Example 5.1. The paper's S = [1,1,-1] uses 3μ+1 = 13
// processors; the search must find a mapping at least as cheap (e.g.
// S = [1,-1,0] with 2μ+1 = 9 processors is conflict-free for this Π).
func TestFindSpaceMappingMatmul(t *testing.T) {
	algo := uda.MatMul(4)
	pi := intmat.Vec(1, 4, 1)
	res, err := FindSpaceMapping(algo, pi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processors > 9 {
		t.Errorf("found %d processors; S = [1,-1,0] achieves 9", res.Processors)
	}
	// The winner must be genuinely conflict-free (brute force).
	if free, w := conflict.BruteForce(res.Mapping.T, algo.Set); !free {
		t.Fatalf("winning mapping has conflict %v:\n%v", w, res.Mapping.T)
	}
	// The paper's S is among the feasible candidates but costs more.
	cands, i := candidateOf(t, algo, intmat.FromRows([]int64{1, 1, -1}))
	paper, ok, err := evaluateSpaceMapping(algo, cands, i, pi, &SpaceOptions{})
	if err != nil || !ok {
		t.Fatal("paper S rejected")
	}
	if paper.Processors != 13 {
		t.Errorf("paper S processors = %d, want 13", paper.Processors)
	}
	if res.Cost > paper.Cost {
		t.Errorf("search cost %d worse than paper's %d", res.Cost, paper.Cost)
	}
}

// TestFindSpaceMappingHonorsMachine: with a linear-array machine, the
// winner must be realizable within Π's slack.
func TestFindSpaceMappingHonorsMachine(t *testing.T) {
	algo := uda.MatMul(4)
	pi := intmat.Vec(1, 4, 1)
	opts := &SpaceOptions{Schedule: Options{Machine: array.NearestNeighbor(1)}}
	res, err := FindSpaceMapping(algo, pi, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := array.NearestNeighbor(1).Decompose(res.Mapping.S, algo.D, pi); err != nil {
		t.Errorf("winner not realizable: %v", err)
	}
}

func TestFindSpaceMappingValidation(t *testing.T) {
	algo := uda.MatMul(3)
	if _, err := FindSpaceMapping(algo, intmat.Vec(1, 1), 1, nil); err == nil {
		t.Error("short Π accepted")
	}
	if _, err := FindSpaceMapping(algo, intmat.Vec(0, 1, 1), 1, nil); err == nil {
		t.Error("invalid schedule accepted")
	}
	if _, err := FindSpaceMapping(algo, intmat.Vec(1, 1, 1), 0, nil); err == nil {
		t.Error("zero array dims accepted")
	}
	if _, err := FindSpaceMapping(algo, intmat.Vec(1, 1, 1), 3, nil); err == nil {
		t.Error("array dims = n accepted")
	}
}

func TestFindSpaceMappingNoSolution(t *testing.T) {
	// Π = [1,1,1] on the matmul cube cannot be conflict-free with any
	// 1-D space mapping with entries in {-1,0,1}: check the optimizer
	// reports ErrNoSchedule rather than inventing one... unless one
	// exists — then assert its correctness instead.
	algo := uda.MatMul(3)
	res, err := FindSpaceMapping(algo, intmat.Vec(1, 1, 1), 1, nil)
	if err != nil {
		if !errors.Is(err, ErrNoSchedule) {
			t.Fatalf("unexpected error %v", err)
		}
		return
	}
	if free, w := conflict.BruteForce(res.Mapping.T, algo.Set); !free {
		t.Fatalf("returned conflicting mapping (witness %v)", w)
	}
}

// TestFindJointMappingMatmul solves Problem 6.2 for matmul into a
// linear array: the joint optimum must be at least as fast as the best
// schedule for the paper's fixed S, i.e. t ≤ μ(μ+2)+1.
func TestFindJointMappingMatmul(t *testing.T) {
	algo := uda.MatMul(4)
	res, err := FindJointMapping(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > 25 {
		t.Errorf("joint optimum t = %d, expected ≤ 25 (paper's S achieves 25)", res.Time)
	}
	if free, w := conflict.BruteForce(res.Mapping.T, algo.Set); !free {
		t.Fatalf("joint winner conflicts (witness %v):\n%v", w, res.Mapping.T)
	}
	t.Logf("joint optimum: t=%d, %d PEs, S=%v, Π=%v",
		res.Time, res.Processors, res.Mapping.S.Row(0), res.Mapping.Pi)
}

// TestFindJointMappingTransitiveClosure: the joint search must do at
// least as well as the paper's fixed S = [0,0,1] optimum μ(μ+3)+1.
func TestFindJointMappingTransitiveClosure(t *testing.T) {
	mu := int64(3)
	algo := uda.TransitiveClosure(mu)
	res, err := FindJointMapping(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := mu*(mu+3) + 1; res.Time > want {
		t.Errorf("joint optimum t = %d, expected ≤ %d", res.Time, want)
	}
	if free, _ := conflict.BruteForce(res.Mapping.T, algo.Set); !free {
		t.Fatal("joint winner conflicts")
	}
}

func TestEnumerateSpaceMappingsCanonical(t *testing.T) {
	sh, err := lookupShape(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range sh.count() {
		s := sh.matrix(i)
		key := s.String()
		if seen[key] {
			t.Errorf("duplicate candidate %s", key)
		}
		seen[key] = true
		r := s.Row(0)
		if fz := r.FirstNonZero(); fz < 0 || r[fz] <= 0 {
			t.Errorf("non-canonical row %v", r)
		}
	}
	// Canonical non-zero rows over {-1,0,1}^2: (0,1), (1,-1), (1,0), (1,1) → 4.
	if sh.count() != 4 {
		t.Errorf("candidate count = %d, want 4", sh.count())
	}
}

func TestEnumerateSpaceMappingsRankFilter(t *testing.T) {
	// All 2-row candidates over {-1,0,1}^2 must be nonsingular.
	sh, err := lookupShape(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sh.count() {
		if s := sh.matrix(i); s.Rank() != 2 {
			t.Errorf("rank-deficient candidate\n%v", s)
		}
	}
}

func TestCountProcessorsAndWireLength(t *testing.T) {
	algo := uda.MatMul(2)
	m, err := NewMapping(algo, intmat.FromRows([]int64{1, 1, -1}), intmat.Vec(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// S·j spans [-2, 4]: 7 processors.
	if got := countProcessorImages(m.S, m.Algo.Set); got != 7 {
		t.Errorf("processors = %d, want 7", got)
	}
	// ‖S·d_i‖₁ = 1 per dependence, 3 total.
	if got := wireLength(m.S, algo.D); got != 3 {
		t.Errorf("wire length = %d, want 3", got)
	}
}

func BenchmarkFindSpaceMappingMatmul(b *testing.B) {
	algo := uda.MatMul(4)
	pi := intmat.Vec(1, 4, 1)
	for i := 0; i < b.N; i++ {
		if _, err := FindSpaceMapping(algo, pi, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindJointMappingMatmul(b *testing.B) {
	algo := uda.MatMul(3)
	for i := 0; i < b.N; i++ {
		if _, err := FindJointMapping(algo, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
