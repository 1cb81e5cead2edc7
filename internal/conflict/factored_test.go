package conflict

import (
	"errors"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestFactoredAgreesWithDecide is the acceptance test for the factored
// decision: across random (S, Π) pairs of several shapes, the
// SpaceAnalyzer verdict must equal the full Decide verdict.
func TestFactoredAgreesWithDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := []struct{ sRows, n int }{{0, 2}, {0, 3}, {1, 3}, {1, 4}, {2, 4}, {2, 5}, {1, 5}, {3, 5}}
	for _, sh := range shapes {
		var sa *SpaceAnalyzer
		var S *intmat.Matrix
		set := uda.Cube(sh.n, 1+int64(rng.Intn(3)))
		// Draw a full-row-rank S.
		for {
			S = intmat.New(sh.sRows, sh.n)
			for i := 0; i < sh.sRows; i++ {
				for j := 0; j < sh.n; j++ {
					S.Set(i, j, rng.Int63n(7)-3)
				}
			}
			if sh.sRows == 0 || S.Rank() == sh.sRows {
				break
			}
		}
		var err error
		sa, err = NewSpaceAnalyzer(S, set)
		if err != nil {
			t.Fatalf("NewSpaceAnalyzer: %v", err)
		}
		for trial := 0; trial < 150; trial++ {
			pi := make(intmat.Vector, sh.n)
			for i := range pi {
				pi[i] = rng.Int63n(9) - 4
			}
			T := S.AppendRow(pi)
			fullRank := T.Rank() == T.Rows()
			fast, fastErr := sa.Decide(pi)
			if !fullRank {
				if !errors.Is(fastErr, ErrRank) {
					t.Fatalf("rank-deficient T not rejected: S=\n%v Π=%v err=%v", S, pi, fastErr)
				}
				continue
			}
			if fastErr != nil {
				t.Fatalf("factored Decide: %v (S=\n%v Π=%v)", fastErr, S, pi)
			}
			slow, err := Decide(T, set)
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if fast.ConflictFree != slow.ConflictFree {
				t.Fatalf("disagreement: factored=%v (%s) full=%v (%s)\nS=\n%v\nΠ=%v μ=%v",
					fast.ConflictFree, fast.Method, slow.ConflictFree, slow.Method, S, pi, set.Upper)
			}
		}
	}
}

// TestFactoredNullBasisSpansSameLattice: the factored basis of a fresh
// decision (freshBasis) and the full HNF basis must generate the same
// integer lattice (verified by mutual integral membership through a
// dual-coordinate check against the full analysis β-coordinates).
func TestFactoredNullBasisSpansSameLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sc := GetScratch()
	defer PutScratch(sc)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(3)
		k := 1 + rng.Intn(n-2)
		S := intmat.New(k-1, n)
		for i := 0; i < k-1; i++ {
			for j := 0; j < n; j++ {
				S.Set(i, j, rng.Int63n(7)-3)
			}
		}
		if k-1 > 0 && S.Rank() != k-1 {
			continue
		}
		pi := make(intmat.Vector, n)
		for i := range pi {
			pi[i] = rng.Int63n(9) - 4
		}
		T := S.AppendRow(pi)
		if T.Rank() != k {
			continue
		}
		set := uda.Cube(n, 3)
		sa, err := NewSpaceAnalyzer(S, set)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sa.project(sc, pi)
		if err != nil {
			t.Fatal(err)
		}
		fastBasis, err := sa.freshBasis(sc, h)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(T, set)
		if err != nil {
			t.Fatal(err)
		}
		fullBasis := a.NullBasis()
		if len(fastBasis) != len(fullBasis) {
			t.Fatalf("basis sizes %d vs %d", len(fastBasis), len(fullBasis))
		}
		// Every fast vector is annihilated and has integral β
		// coordinates with the leading k entries zero (i.e. is in the
		// full lattice); symmetric membership follows from equal rank
		// and primitivity, but check via V anyway.
		V := a.H.V()
		for _, g := range fastBasis {
			if !T.MulVec(g).IsZero() {
				t.Fatalf("fast basis vector %v not annihilated", g)
			}
			beta := V.MulVec(g)
			for i := 0; i < k; i++ {
				if beta[i] != 0 {
					t.Fatalf("fast basis vector %v outside the full lattice (β=%v)", g, beta)
				}
			}
		}
		// Determinant check on the free coordinates: the fast basis,
		// expressed in β-coordinates, must be unimodular — otherwise it
		// spans a strict sublattice.
		q := len(fastBasis)
		coords := intmat.New(q, q)
		for c, g := range fastBasis {
			beta := V.MulVec(g)
			for r := 0; r < q; r++ {
				coords.Set(r, c, beta[k+r])
			}
		}
		if d := coords.Det(); d != 1 && d != -1 {
			t.Fatalf("fast basis spans sublattice of index |%d|:\nS=\n%v\nΠ=%v", d, S, pi)
		}
	}
}

func TestSpaceAnalyzerErrors(t *testing.T) {
	// Dimension mismatch.
	if _, err := NewSpaceAnalyzer(intmat.New(1, 3), uda.Cube(4, 2)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Rank-deficient S.
	S := intmat.FromRows([]int64{1, 2, 3}, []int64{2, 4, 6})
	if _, err := NewSpaceAnalyzer(S, uda.Cube(3, 2)); err == nil {
		t.Error("rank-deficient S accepted")
	}
	// Invalid index set.
	if _, err := NewSpaceAnalyzer(intmat.New(0, 2), uda.Box(0, 3)); err == nil {
		t.Error("invalid index set accepted")
	}
}

func TestSpaceAnalyzerEmptyS(t *testing.T) {
	// 0-row S: W is the identity basis; Π = [1, μ+1] is injective on
	// the box (a valid single-processor linearization).
	set := uda.Box(3, 3)
	sa, err := NewSpaceAnalyzer(intmat.New(0, 2), set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sa.Decide(intmat.Vec(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConflictFree {
		t.Errorf("injective linearization reported conflicting: %v", res)
	}
	res2, err := sa.Decide(intmat.Vec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.ConflictFree {
		t.Error("Π = [1 1] reported conflict-free on a 2-D box")
	}
}

func TestSpaceAnalyzerRankRejection(t *testing.T) {
	set := uda.Cube(3, 3)
	S := intmat.FromRows([]int64{1, 1, -1})
	sa, err := NewSpaceAnalyzer(S, set)
	if err != nil {
		t.Fatal(err)
	}
	// Π parallel to S's row → rank(T) = 1 < 2.
	if _, err := sa.Decide(intmat.Vec(2, 2, -2)); !errors.Is(err, ErrRank) {
		t.Errorf("err = %v, want ErrRank", err)
	}
}

func BenchmarkFactoredVsFullDecide(b *testing.B) {
	set := uda.Cube(5, 2)
	S := intmat.FromRows(
		[]int64{1, 0, 0, 0, 0},
		[]int64{0, 1, 0, 0, 0},
	)
	pi := intmat.Vec(1, 1, 1, 9, 3)
	b.Run("factored", func(b *testing.B) {
		sa, err := NewSpaceAnalyzer(S, set)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := sa.Decide(pi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSizeReduceBasisFixpoint: sizeReduceBasis ends at a fixpoint, so
// reducing its output again changes nothing. The hexagonal pair
// (−1,1,0,0), (−1,0,1,0) sits at a rounding tie, 2|⟨q,p⟩| = ⟨p,p⟩; a
// reducer that steps at ties trades the two vectors back and forth
// until its sweep cap. Random bases with small entries, where ties are
// common, must reach a fixpoint too.
func TestSizeReduceBasisFixpoint(t *testing.T) {
	bases := [][]intmat.Vector{
		{intmat.Vec(-1, 1, 0, 0), intmat.Vec(-1, 0, 1, 0)},
		{intmat.Vec(1, 1, 0), intmat.Vec(0, 1, 1), intmat.Vec(1, 0, 1)},
		{intmat.Vec(-1, 1, 0, 0, 0), intmat.Vec(-1, 0, 1, 0, 0), intmat.Vec(-1, 0, 0, 1, 0)},
	}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 3000; trial++ {
		n, q := 2+rng.Intn(4), 2+rng.Intn(2)
		b := make([]intmat.Vector, q)
		for i := range b {
			b[i] = make(intmat.Vector, n)
			for j := range b[i] {
				b[i][j] = rng.Int63n(7) - 3
			}
		}
		bases = append(bases, b)
	}
	for _, b := range bases {
		in := make([]intmat.Vector, len(b))
		for i, v := range b {
			in[i] = v.Clone()
		}
		sizeReduceBasis(b)
		once := make([]intmat.Vector, len(b))
		for i, v := range b {
			once[i] = v.Clone()
		}
		sizeReduceBasis(b)
		for i := range b {
			if !b[i].Equal(once[i]) {
				t.Fatalf("sizeReduceBasis(%v) = %v is not a fixpoint: reduced again to %v", in, once, b)
			}
		}
	}
}

// TestSizeReduceBasisOverflow: products past int64 surface as
// *intmat.OverflowError through intmat.Guard instead of wrapping into a
// corrupted basis.
func TestSizeReduceBasisOverflow(t *testing.T) {
	reduce := func(b []intmat.Vector) (err error) {
		defer intmat.Guard(&err)
		sizeReduceBasis(b)
		return nil
	}
	big := int64(1) << 32
	err := reduce([]intmat.Vector{intmat.Vec(big, 1), intmat.Vec(big, 2)})
	var oe *intmat.OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("sizeReduceBasis on 2^64-sized products returned %v, want *intmat.OverflowError", err)
	}
	if err := reduce([]intmat.Vector{intmat.Vec(1<<20, 1), intmat.Vec(1<<20, 2)}); err != nil {
		t.Fatalf("in-range basis: %v", err)
	}
}
