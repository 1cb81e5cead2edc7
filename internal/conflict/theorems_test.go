package conflict

import (
	"errors"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

func randFullRank(rng *rand.Rand, k, n int, amp int64) *intmat.Matrix {
	for {
		m := intmat.New(k, n)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.Int63n(2*amp+1)-amp)
			}
		}
		if m.Rank() == k {
			return m
		}
	}
}

// TestExactMatchesBruteForce is the central correctness test: the
// exact decision agrees with the definitional brute force on hundreds
// of random mapping matrices across shapes, and every conflict it
// reports comes with a non-feasible conflict vector.
func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ k, n int }{{1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {1, 4}}
	for _, sh := range shapes {
		for trial := 0; trial < 120; trial++ {
			T := randFullRank(rng, sh.k, sh.n, 4)
			set := uda.Cube(sh.n, 1+int64(rng.Intn(3)))
			res, err := Decide(T, set)
			if err != nil {
				t.Fatalf("Decide(%v): %v", T, err)
			}
			gotFree, witness := res.ConflictFree, res.Witness
			wantFree, bfWitness := BruteForce(T, set)
			if gotFree != wantFree {
				t.Fatalf("shape %dx%d μ=%v:\n%v\nexact says free=%v, brute force says %v (bf witness %v)",
					sh.k, sh.n, set.Upper, T, gotFree, wantFree, bfWitness)
			}
			if !gotFree {
				if witness == nil {
					t.Fatalf("no witness returned for conflicting %v", T)
				}
				if !T.MulVec(witness).IsZero() {
					t.Fatalf("witness %v not in null space of %v", witness, T)
				}
				if Feasible(set, witness) {
					t.Fatalf("witness %v is feasible for μ=%v", witness, set.Upper)
				}
			}
		}
	}
}

// TestDecideMatchesBruteForce exercises the full dispatcher (theorem
// fast paths + fallbacks) against the ground truth.
func TestDecideMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ k, n int }{{2, 3}, {2, 4}, {1, 4}, {3, 4}, {3, 5}, {2, 5}}
	for _, sh := range shapes {
		for trial := 0; trial < 80; trial++ {
			T := randFullRank(rng, sh.k, sh.n, 3)
			set := uda.Cube(sh.n, 1+int64(rng.Intn(2)))
			res, err := Decide(T, set)
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			wantFree, _ := BruteForce(T, set)
			if res.ConflictFree != wantFree {
				t.Fatalf("shape %dx%d μ=%v:\n%v\nDecide(%s) says %v, brute force %v",
					sh.k, sh.n, set.Upper, T, res.Method, res.ConflictFree, wantFree)
			}
		}
	}
}

// TestTheorem47Sufficiency: whenever the Theorem 4.7 conditions hold,
// the matrix really is conflict-free (validated by brute force).
func TestTheorem47Sufficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	confirmed := 0
	for trial := 0; trial < 4000 && confirmed < 40; trial++ {
		T := randFullRank(rng, 2, 4, 4)
		set := uda.Cube(4, 1+int64(rng.Intn(3)))
		a, err := Analyze(T, set)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Theorem47() {
			continue
		}
		confirmed++
		if free, w := BruteForce(T, set); !free {
			t.Fatalf("Theorem 4.7 accepted\n%v\nμ=%v but brute force found conflict %v", T, set.Upper, w)
		}
	}
	if confirmed == 0 {
		t.Error("no Theorem 4.7 positives sampled — test vacuous")
	}
}

// TestTheorem47NecessityGap documents the necessity gap in the paper's
// Theorem 4.7: the null basis below is conflict-free on the given box
// (every integral combination leaves the box, certified by the exact
// enumeration) yet violates condition (1) — no row has same-signed
// entries with |u_{i,3} + u_{i,4}| > μ_i. The mixed-sign rows (10,−2)
// and (−2,10) do the certifying instead.
func TestTheorem47NecessityGap(t *testing.T) {
	// Construct T ∈ Z^{2×4} with null basis exactly u1 = (10,-2,1,0),
	// u2 = (-2,10,0,1): T = [A | I2·?]. We need T·u1 = T·u2 = 0.
	// Take T = [[ -10, 2, 106, 0 ], ...]: simpler to build T from the
	// basis: rows orthogonal... integers: choose
	// T = [[1, 0, -10, 2], [0, 1, 2, -10]]:
	//   T·u1 = (10 - 10, -2 + 2) = 0 ✓ (u1 = (10,-2,1,0))
	//   T·u2 = (-2 + 0·10 -0 + 2·1? ...) compute: row1·u2 = -2 -0 + 0 + 2 = 0 ✓
	//   row2·u2 = 10 + 0 - 10 = 0 ✓
	T := intmat.FromRows(
		[]int64{1, 0, -10, 2},
		[]int64{0, 1, 2, -10},
	)
	set := uda.Box(5, 5, 5, 5)
	a, err := Analyze(T, set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree {
		t.Fatalf("construction is not conflict-free (%v); adjust the example", res)
	}
	if bfFree, w := BruteForce(T, set); !bfFree {
		t.Fatalf("brute force found conflict %v", w)
	}
	if a.Theorem47() {
		t.Skip("Theorem 4.7 conditions hold for the computed basis; gap not exhibited by this U")
	}
	// The gap: conflict-free, yet Theorem 4.7 says no. Decide must
	// answer through the exact fallback.
	if res.Method != "exact-factored-fallback" {
		t.Errorf("Decide method = %s, want exact-factored-fallback", res.Method)
	}
}

// TestTheorem48Sufficiency mirrors the 4.7 test for k = n−3.
func TestTheorem48Sufficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	confirmed := 0
	for trial := 0; trial < 6000 && confirmed < 20; trial++ {
		T := randFullRank(rng, 1, 4, 4)
		set := uda.Cube(4, 1+int64(rng.Intn(2)))
		a, err := Analyze(T, set)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Theorem48() {
			continue
		}
		confirmed++
		if free, w := BruteForce(T, set); !free {
			t.Fatalf("Theorem 4.8 accepted\n%v\nμ=%v but brute force found conflict %v", T, set.Upper, w)
		}
	}
	if confirmed == 0 {
		t.Skip("no Theorem 4.8 positives sampled at this scale")
	}
}

// TestTheorem46Sufficiency: whenever the gcd-based sufficient condition
// of Theorem 4.6 holds, brute force must confirm conflict-freeness.
func TestTheorem46Sufficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	confirmed := 0
	for trial := 0; trial < 8000 && confirmed < 25; trial++ {
		T := randFullRank(rng, 2, 4, 5)
		set := uda.Cube(4, 1+int64(rng.Intn(3)))
		a, err := Analyze(T, set)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Theorem46() {
			continue
		}
		confirmed++
		if free, w := BruteForce(T, set); !free {
			t.Fatalf("Theorem 4.6 accepted\n%v\nμ=%v but brute force found conflict %v", T, set.Upper, w)
		}
	}
	if confirmed == 0 {
		t.Skip("no Theorem 4.6 positives sampled at this scale")
	}
}

// TestTheorem46ConstructedPositive: null basis u1 = (6,0,1,0),
// u2 = (0,6,0,1) over μ = 5: row 0 gcd(6,0) = 6 ≥ 6 and the kernel pair
// (0,−1) gives |−6| > 5 in row 1.
func TestTheorem46ConstructedPositive(t *testing.T) {
	T := intmat.FromRows(
		[]int64{1, 0, -6, 0},
		[]int64{0, 1, 0, -6},
	)
	set := uda.Box(5, 5, 5, 5)
	a, err := Analyze(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Theorem46() {
		t.Errorf("Theorem 4.6 rejected the constructed positive; basis %v", a.NullBasis())
	}
	if free, w := BruteForce(T, set); !free {
		t.Fatalf("construction has conflict %v", w)
	}
	// Negative instance: μ = 6 breaks the gcd margin.
	set2 := uda.Cube(4, 6)
	a2, err := Analyze(T, set2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Theorem46() {
		t.Error("Theorem 4.6 accepted with insufficient gcd margin")
	}
}

func TestTheorem46PanicsOnWrongCodimension(t *testing.T) {
	a, err := Analyze(intmat.FromRows([]int64{1, 1, -1}, []int64{1, 4, 1}), uda.Cube(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Theorem46 on codim-1 analysis did not panic")
		}
	}()
	a.Theorem46()
}

// TestTheorem48ConstructedPositive exercises Theorem 4.8 on a
// hand-built qualifying instance: T ∈ Z^{3×6} whose null lattice is
// spanned by u1 = (8,0,0,1,0,0), u2 = (0,8,0,0,1,0), u3 = (0,0,8,0,0,1)
// over the box μ = 7. Every nonzero integral combination has an entry
// 8·a with |8a| ≥ 8 > 7, so the mapping is conflict-free, and all four
// sign-pattern conditions hold through the 8-entries.
func TestTheorem48ConstructedPositive(t *testing.T) {
	T := intmat.FromRows(
		[]int64{1, 0, 0, -8, 0, 0},
		[]int64{0, 1, 0, 0, -8, 0},
		[]int64{0, 0, 1, 0, 0, -8},
	)
	set := uda.Cube(6, 7)
	a, err := Analyze(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Theorem48() {
		t.Errorf("Theorem 4.8 rejected the constructed positive; basis = %v", a.NullBasis())
	}
	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree {
		t.Errorf("Decide = %v", res)
	}
	// Shrinking the lattice margin to 8 with μ = 8 must flip the answer:
	// u1 itself sits inside the box (|8| ≤ 8), a conflict.
	set2 := uda.Cube(6, 8)
	res2, err := Decide(T, set2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ConflictFree {
		t.Error("μ=8 variant reported conflict-free")
	}
}

// TestTheorem45Sufficiency: the row-gcd sufficient condition implies
// conflict-freeness.
func TestTheorem45Sufficiency(t *testing.T) {
	// Hand-built positive instance: T = [1, 7] on the 1-D..2-D case:
	// n=2, k=1, null basis = (±7, ∓1)? T·γ=0 → γ = t·(7,-1). gcd row 1
	// entries: |7| ≥ μ1+1 for μ1 ≤ 6; row 2: gcd 1. Need 1 row subset
	// with nonsingular 1x1 minor: row 1 qualifies (7 ≠ 0, gcd 7 ≥ μ+1).
	T := intmat.FromRows([]int64{1, 7})
	set := uda.Box(6, 6)
	a, err := Analyze(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Theorem45() {
		t.Error("Theorem 4.5 rejected a qualifying instance")
	}
	if free, w := BruteForce(T, set); !free {
		t.Errorf("brute force found conflict %v", w)
	}
	// Negative: μ = 7 breaks the gcd margin (7 ≥ μ+1 fails).
	set2 := uda.Box(7, 7)
	a2, err := Analyze(T, set2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Theorem45() {
		t.Error("Theorem 4.5 accepted with insufficient gcd margin")
	}
}

// TestTheorem43And44Necessity: on random conflict-free matrices, both
// necessary conditions must hold.
func TestTheorem43And44Necessity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 3000 && checked < 60; trial++ {
		k := 1 + rng.Intn(2)
		n := k + 2
		T := randFullRank(rng, k, n, 5)
		set := uda.Cube(n, 1+int64(rng.Intn(2)))
		free, _ := BruteForce(T, set)
		if !free {
			continue
		}
		checked++
		a, err := Analyze(T, set)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Theorem43() {
			t.Fatalf("conflict-free matrix violates necessary condition 4.3:\n%v μ=%v", T, set.Upper)
		}
		if !a.Theorem44() {
			t.Fatalf("conflict-free matrix violates necessary condition 4.4:\n%v μ=%v", T, set.Upper)
		}
	}
	if checked == 0 {
		t.Skip("no conflict-free samples at this scale")
	}
}

// TestExample41NonFeasibleCombination reproduces Example 4.1: the two
// feasible conflict vectors combine (with rational weights 1/7, 1/7)
// into the non-feasible conflict vector [1,0,-1,0]; the β-lattice
// representation of Theorem 4.2 must therefore detect the conflict.
func TestExample41NonFeasibleCombination(t *testing.T) {
	T := intmat.FromRows(
		[]int64{1, 7, 1, 1},
		[]int64{1, 7, 1, 0},
	)
	set := uda.Cube(4, 6)
	res, err := Decide(T, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConflictFree {
		t.Fatal("Example 4.1 matrix reported conflict-free")
	}
	witness := res.Witness
	// The canonical non-feasible vector is [1,0,-1,0] (or another vector
	// inside the box); verify the witness is genuinely inside the box.
	for i, g := range witness {
		if abs64(g) > set.Upper[i] {
			t.Errorf("witness %v entry %d outside box", witness, i)
		}
	}
}

func TestTheorem47PanicsOnWrongCodimension(t *testing.T) {
	a, err := Analyze(intmat.FromRows([]int64{1, 1, -1}, []int64{1, 4, 1}), uda.Cube(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Theorem47 on codim-1 analysis did not panic")
		}
	}()
	a.Theorem47()
}

// TestDecideBudget: the Theorem 4.7 necessity-gap lattice scaled by
// a = 10⁵, u1 = (10a, −2a, 1, 0) and u2 = (−2a, 10a, 0, 1), on the box
// μ = (5a, 5a, 10⁶, 10⁶). No certificate holds and no basis vector, sum
// or difference lies in the box, so the decision falls to the lattice
// walk, whose smallest box of two free coordinates holds (10a + 1)²
// points, past enumBudget.
func TestDecideBudget(t *testing.T) {
	const a = 100_000
	T := intmat.FromRows([]int64{1, 0, -10 * a, 2 * a}, []int64{0, 1, 2 * a, -10 * a})
	set := uda.Box(5*a, 5*a, 1_000_000, 1_000_000)
	if res, err := Decide(T, set); !errors.Is(err, ErrBudget) {
		t.Fatalf("Decide = %v, %v; want ErrBudget", res, err)
	}
}

func BenchmarkDecide2x4(b *testing.B) {
	T := intmat.FromRows(
		[]int64{1, 7, 1, 1},
		[]int64{1, 7, 1, 0},
	)
	set := uda.Cube(4, 6)
	for i := 0; i < b.N; i++ {
		if _, err := Decide(T, set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForce2x4(b *testing.B) {
	T := intmat.FromRows(
		[]int64{1, 7, 1, 1},
		[]int64{1, 7, 1, 0},
	)
	set := uda.Cube(4, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(T, set)
	}
}
