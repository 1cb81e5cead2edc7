package conflict

import (
	"errors"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestFeasibleTheorem22 checks the feasibility criterion against its
// geometric definition on the paper's Figure 1 data: in the 2-D index
// set 0 ≤ j_1, j_2 ≤ 4, γ = [1,1] is non-feasible and γ = [3,5] is
// feasible.
func TestFeasibleTheorem22(t *testing.T) {
	set := uda.Box(4, 4)
	if Feasible(set, intmat.Vec(1, 1)) {
		t.Error("γ = [1 1] reported feasible")
	}
	if !Feasible(set, intmat.Vec(3, 5)) {
		t.Error("γ = [3 5] reported non-feasible")
	}
}

// Geometric cross-check of Theorem 2.2 on many vectors: feasible iff no
// j in the set has j+γ in the set.
func TestFeasibleMatchesGeometry(t *testing.T) {
	set := uda.Box(3, 2)
	for g1 := int64(-5); g1 <= 5; g1++ {
		for g2 := int64(-4); g2 <= 4; g2++ {
			gamma := intmat.Vec(g1, g2)
			if gamma.IsZero() {
				continue
			}
			geometric := true
			set.Each(func(j intmat.Vector) bool {
				if set.Contains(j.Add(gamma)) {
					geometric = false
					return false
				}
				return true
			})
			if got := Feasible(set, gamma); got != geometric {
				t.Errorf("Feasible(%v) = %v, geometry says %v", gamma, got, geometric)
			}
		}
	}
}

// TestExample21 reproduces Example 2.1: the 4-D cube μ = 6 with the
// mapping matrix of Equation 2.8. γ1 = [0,1,-7,0] and γ2 = [7,-1,0,0]
// are feasible conflict vectors; γ3 = [1,0,-1,0] is a non-feasible one,
// so T is not conflict-free.
func TestExample21(t *testing.T) {
	T := intmat.FromRows(
		[]int64{1, 7, 1, 1},
		[]int64{1, 7, 1, 0},
	)
	set := uda.Cube(4, 6)
	g1, g2, g3 := intmat.Vec(0, 1, -7, 0), intmat.Vec(7, -1, 0, 0), intmat.Vec(1, 0, -1, 0)
	for _, g := range []intmat.Vector{g1, g2, g3} {
		if !T.MulVec(g).IsZero() {
			t.Errorf("Tγ != 0 for %v", g)
		}
		if g.GCD() != 1 {
			t.Errorf("γ = %v not primitive", g)
		}
	}
	if !Feasible(set, g1) || !Feasible(set, g2) {
		t.Error("γ1/γ2 should be feasible")
	}
	if Feasible(set, g3) {
		t.Error("γ3 should be non-feasible")
	}
	// [2,0,-2,0] solves Tγ=0 but is not a conflict vector (gcd 2).
	if intmat.Vec(2, 0, -2, 0).GCD() == 1 {
		t.Error("gcd sanity failed")
	}

	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConflictFree {
		t.Errorf("Example 2.1 matrix reported conflict-free (%s)", res.Method)
	}
	if res.Witness == nil || !T.MulVec(res.Witness).IsZero() || Feasible(set, res.Witness) {
		t.Errorf("witness %v is not a non-feasible conflict vector", res.Witness)
	}
	// Ground truth.
	if free, w := BruteForce(T, set); free {
		t.Error("brute force disagrees: conflict-free")
	} else if w == nil {
		t.Error("brute force found no witness")
	}
}

// TestExample31MatMulConflictVector checks Equation 3.5: for the matmul
// mapping with S = [1,1,-1] and symbolic Π, the conflict vector is
// γ = [-π2-π3, π1+π3, π1-π2] (up to normalization). We instantiate
// Π = [1,4,1] (the paper's optimal for μ=4) and compare.
func TestExample31MatMulConflictVector(t *testing.T) {
	T := intmat.FromRows(
		[]int64{1, 1, -1},
		[]int64{1, 4, 1},
	)
	gamma, err := UniqueConflictVector(T)
	if err != nil {
		t.Fatal(err)
	}
	// Equation 3.5 at Π = [1,4,1]: [-(4+1), 1+1, 1-4] = [-5, 2, -3];
	// canonicalized (first entry positive): [5, -2, 3].
	want := intmat.Vec(5, -2, 3)
	if !gamma.Equal(want) {
		t.Errorf("γ = %v, want %v", gamma, want)
	}
	// The paper notes Tγ would equal -d3 before normalization; verify
	// the null property instead.
	if !T.MulVec(gamma).IsZero() {
		t.Error("Tγ != 0")
	}
	// μ = 4: feasible (|γ1| = 5 > 4) → conflict-free mapping.
	set := uda.Cube(3, 4)
	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree || res.Method != "theorem-3.1" {
		t.Errorf("Decide = %v", res)
	}
	if free, _ := BruteForce(T, set); !free {
		t.Error("brute force found a conflict")
	}
}

// TestExample32TransitiveClosure checks Equation 3.7 and the paper's
// optimal schedule: T = [[0,0,1],[μ+1,1,1]] has conflict vector
// [1, -(μ+1), 0], feasible for the cube μ.
func TestExample32TransitiveClosure(t *testing.T) {
	mu := int64(4)
	T := intmat.FromRows(
		[]int64{0, 0, 1},
		[]int64{mu + 1, 1, 1},
	)
	gamma, err := UniqueConflictVector(T)
	if err != nil {
		t.Fatal(err)
	}
	want := intmat.Vec(1, -(mu + 1), 0)
	if !gamma.Equal(want) {
		t.Errorf("γ = %v, want %v", gamma, want)
	}
	set := uda.Cube(3, mu)
	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree {
		t.Errorf("Decide = %v", res)
	}
	if free, _ := BruteForce(T, set); !free {
		t.Error("brute force found a conflict")
	}
}

// TestSuboptimalScheduleFromRef23 reproduces the [23] schedule of
// Example 5.1: Π' = [2,1,μ] with conflict vector [-(μ+1), 2+μ, 1];
// (the text's γ̄ = [-(μ+1), 2+μ, 1] — canonicalize to leading positive).
func TestSuboptimalScheduleFromRef23(t *testing.T) {
	mu := int64(4)
	T := intmat.FromRows(
		[]int64{1, 1, -1},
		[]int64{2, 1, mu},
	)
	gamma, err := UniqueConflictVector(T)
	if err != nil {
		t.Fatal(err)
	}
	want := intmat.Vec(mu+1, -(mu + 2), -1)
	if !gamma.Equal(want) {
		t.Errorf("γ = %v, want %v", gamma, want)
	}
	set := uda.Cube(3, mu)
	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree {
		t.Errorf("[23] schedule should be conflict-free: %v", res)
	}
}

func TestUniqueConflictVectorAgreesWithAdjugateForm(t *testing.T) {
	mats := []*intmat.Matrix{
		intmat.FromRows([]int64{1, 1, -1}, []int64{1, 4, 1}),
		intmat.FromRows([]int64{1, 1, -1}, []int64{2, 1, 4}),
		intmat.FromRows([]int64{2, 3, 5}, []int64{1, 0, 2}),
	}
	for _, T := range mats {
		g1, err1 := UniqueConflictVector(T)
		g2, err2 := ConflictVectorViaAdjugate(T)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v, %v", err1, err2)
		}
		if !g1.Equal(g2) {
			t.Errorf("minors %v != adjugate %v for\n%v", g1, g2, T)
		}
	}
}

// TestDecideCodimensionOneIsTheorem31: at k = n−1 Decide's verdict is
// Theorem 3.1 on the closed-form unique conflict vector, and a conflict
// is reported with that vector as witness.
func TestDecideCodimensionOneIsTheorem31(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(4)
		T := randFullRank(rng, n-1, n, 3)
		set := uda.Cube(n, 1+int64(rng.Intn(3)))
		res, err := Decide(T, set)
		if err != nil {
			t.Fatal(err)
		}
		gamma, err := UniqueConflictVector(T)
		if err != nil {
			t.Fatal(err)
		}
		free := Feasible(set, gamma)
		if res.Method != "theorem-3.1" || res.ConflictFree != free || !free && !res.Witness.Equal(gamma) {
			t.Fatalf("Decide(%v, μ=%v) = %v; want theorem-3.1 on γ = %v (feasible %v)", T, set.Upper, res, gamma, free)
		}
	}
}

func TestUniqueConflictVectorRankDeficient(t *testing.T) {
	T := intmat.FromRows([]int64{1, 2, 3}, []int64{2, 4, 6})
	if _, err := UniqueConflictVector(T); !errors.Is(err, ErrRank) {
		t.Errorf("err = %v, want ErrRank", err)
	}
}

func TestConflictVectorViaAdjugateSingularB(t *testing.T) {
	// B (leading 2x2) singular but T full rank.
	T := intmat.FromRows([]int64{1, 2, 0}, []int64{2, 4, 1})
	if _, err := ConflictVectorViaAdjugate(T); err == nil {
		t.Error("singular B accepted")
	}
	// The minors form still works.
	g, err := UniqueConflictVector(T)
	if err != nil {
		t.Fatal(err)
	}
	if !T.MulVec(g).IsZero() {
		t.Error("minors-form γ not in null space")
	}
}

func TestWrongShapeErrors(t *testing.T) {
	T := intmat.FromRows([]int64{1, 2, 3})
	if _, err := UniqueConflictVector(T); !errors.Is(err, ErrNotCodimensionOne) {
		t.Errorf("err = %v", err)
	}
	if _, err := ConflictVectorViaAdjugate(T); !errors.Is(err, ErrNotCodimensionOne) {
		t.Errorf("err = %v", err)
	}
	if _, err := LinearForms(T); !errors.Is(err, ErrNotCodimensionOne) {
		t.Errorf("err = %v", err)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	set := uda.Cube(3, 4)
	if _, err := Analyze(intmat.FromRows([]int64{1, 2}), set); err == nil {
		t.Error("column mismatch accepted")
	}
	if _, err := Analyze(intmat.FromRows([]int64{1, 2, 3}, []int64{2, 4, 6}), set); !errors.Is(err, ErrRank) {
		t.Errorf("rank-deficient: %v", err)
	}
}

func TestDecideFullRank(t *testing.T) {
	set := uda.Cube(2, 3)
	res, err := Decide(intmat.Identity(2), set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree || res.Method != "full-rank-injective" {
		t.Errorf("Decide = %v", res)
	}
}

// TestDecideEdgeInputs pins the answers on inputs the split T = [S; Π]
// must treat as the paper does: a T whose decision passes int64 is
// answered with an *intmat.OverflowError value, not a panic; a T
// without rows has the conflict lattice Z^n; a rank-deficient T (in S,
// in Π, or with k > n) is ErrRank; and a column mismatch names T.
func TestDecideEdgeInputs(t *testing.T) {
	big := int64(1) << 40
	res, err := Decide(intmat.FromRows([]int64{big, big, 3}, []int64{big, 7, 2 * big}), uda.Box(2, 2, 2))
	var oe *intmat.OverflowError
	if !errors.As(err, &oe) {
		t.Errorf("entries near 2^40: Decide = %v, %v; want *intmat.OverflowError", res, err)
	}
	for n := 1; n <= 4; n++ {
		res, err := Decide(intmat.New(0, n), uda.Cube(n, 2))
		if err != nil || res.ConflictFree || res.Witness == nil || Feasible(uda.Cube(n, 2), res.Witness) {
			t.Errorf("no rows, n=%d: Decide = %v, %v; want a conflict with a non-feasible witness", n, res, err)
		}
	}
	set := uda.Cube(3, 2)
	for _, T := range []*intmat.Matrix{
		intmat.FromRows([]int64{1, 2, 3}, []int64{2, 4, 6}, []int64{1, 0, 0}),
		intmat.FromRows([]int64{0, 0, 0}, []int64{1, 0, 0}),
		intmat.FromRows([]int64{1, 2, 3}, []int64{2, 4, 6}),
		intmat.FromRows([]int64{0, 0, 0}),
		intmat.FromRows([]int64{1, 0, 0}, []int64{0, 1, 0}, []int64{0, 0, 1}, []int64{1, 1, 1}),
	} {
		if res, err := Decide(T, set); !errors.Is(err, ErrRank) {
			t.Errorf("Decide(%v) = %v, %v; want ErrRank", T, res, err)
		}
	}
	_, err = Decide(intmat.FromRows([]int64{1, 2}), set)
	if want := "conflict: T has 2 columns, index set dimension is 3"; err == nil || err.Error() != want {
		t.Errorf("column mismatch: %v, want %q", err, want)
	}
}

func TestCombine(t *testing.T) {
	T := intmat.FromRows(
		[]int64{1, 7, 1, 1},
		[]int64{1, 7, 1, 0},
	)
	a, err := Analyze(T, uda.Cube(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	basis := a.NullBasis()
	if len(basis) != 2 {
		t.Fatalf("basis size %d", len(basis))
	}
	g := a.Combine(intmat.Vec(2, -3))
	if !T.MulVec(g).IsZero() {
		t.Error("combined vector not annihilated")
	}
	if !g.Equal(basis[0].Scale(2).Add(basis[1].Scale(-3))) {
		t.Error("Combine mismatch")
	}
}

// TestClassesCensus: the collision census groups pairs by primitive
// conflict direction and is empty for conflict-free mappings.
func TestClassesCensus(t *testing.T) {
	// Π = [1,1,1] on the matmul mapping: the primitive non-feasible
	// vector (1,-1,0)-family dominates (γ from Eq 3.5 at Π=[1,1,1]:
	// (-2, 2, 0) → primitive (1,-1,0)).
	T := intmat.FromRows(
		[]int64{1, 1, -1},
		[]int64{1, 1, 1},
	)
	set := uda.Cube(3, 3)
	classes := Classes(T, set)
	if len(classes) == 0 {
		t.Fatal("no classes for conflicting mapping")
	}
	totalPairs := 0
	for _, c := range classes {
		if c.Pairs < 1 {
			t.Errorf("class %v with %d pairs", c.Vector, c.Pairs)
		}
		if Feasible(set, c.Vector) {
			t.Errorf("class vector %v is feasible", c.Vector)
		}
		if !T.MulVec(c.Vector).IsZero() {
			t.Errorf("class vector %v not in null space", c.Vector)
		}
		totalPairs += c.Pairs
	}
	// Cross-check the census against raw collision groups: total pairs
	// = Σ C(|group|, 2).
	want := 0
	for _, g := range BruteForceCollisions(T, set) {
		want += len(g) * (len(g) - 1) / 2
	}
	if totalPairs != want {
		t.Errorf("census pairs = %d, groups give %d", totalPairs, want)
	}
	// Dominant class first.
	for i := 1; i < len(classes); i++ {
		if classes[i].Pairs > classes[i-1].Pairs {
			t.Error("classes not sorted by pair count")
		}
	}
	// Conflict-free mapping → empty census (γ = (-5, 3, -2) is feasible
	// at μ = 3).
	free := intmat.FromRows(
		[]int64{1, 1, -1},
		[]int64{1, 3, 2},
	)
	if got := Classes(free, set); len(got) != 0 {
		t.Errorf("conflict-free census = %v", got)
	}
}

func TestResultString(t *testing.T) {
	r := Result{ConflictFree: true, Method: "x"}
	if r.String() == "" {
		t.Error("empty String")
	}
	r2 := Result{Witness: intmat.Vec(1, 0), Method: "y"}
	if r2.String() == "" {
		t.Error("empty String with witness")
	}
	r3 := Result{Method: "z"}
	if r3.String() == "" {
		t.Error("empty String without witness")
	}
}
