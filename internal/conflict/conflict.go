// Package conflict implements the computational-conflict theory of
// Shang & Fortes (1990): conflict vectors of a mapping matrix, the
// feasibility criterion for constant-bounded index sets, the closed-form
// unique conflict vector of the k = n−1 case, the Hermite-normal-form
// representation of all conflict vectors, and the necessary and/or
// sufficient conflict-freeness conditions of Theorems 4.3–4.8, together
// with an exact decision procedure valid for every k and a brute-force
// ground truth used for validation.
//
// Terminology follows the paper (Definition 2.3): for a mapping matrix
// T ∈ Z^{k×n} with rank k < n, a conflict vector is an integral vector
// γ ≠ 0 with Tγ = 0 and gcd(γ) = 1. The vector is feasible when no two
// points of the index set differ by γ; T is conflict-free when every
// conflict vector is feasible. Two computations mapped by a
// non-conflict-free T collide in the same processor at the same time.
package conflict

import (
	"errors"
	"fmt"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// Feasible reports whether γ is a feasible conflict vector for the
// constant-bounded index set — Theorem 2.2: γ is feasible iff some
// entry satisfies |γ_i| > μ_i.
func Feasible(set uda.IndexSet, gamma intmat.Vector) bool {
	if len(gamma) != set.Dim() {
		panic(fmt.Sprintf("conflict: Feasible dimension mismatch %d vs %d", len(gamma), set.Dim()))
	}
	for i, g := range gamma {
		a := g
		if a < 0 {
			a = -a
		}
		if a > set.Upper[i] {
			return true
		}
	}
	return false
}

// Analysis bundles a mapping matrix with an index set and the Hermite
// normal form of the matrix, giving access to the conflict-vector
// representation of Theorem 4.2.
type Analysis struct {
	T   *intmat.Matrix
	Set uda.IndexSet
	H   *intmat.HNF
}

// ErrRank reports that the mapping matrix violates the rank(T) = k
// requirement of Definition 2.2 (condition 4).
var ErrRank = errors.New("conflict: mapping matrix does not have full row rank")

// Analyze validates T against the index set and computes its Hermite
// normal form. T must have n = set.Dim() columns and full row rank.
func Analyze(t *intmat.Matrix, set uda.IndexSet) (*Analysis, error) {
	if t.Cols() != set.Dim() {
		return nil, fmt.Errorf("conflict: T has %d columns, index set dimension is %d", t.Cols(), set.Dim())
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	h, err := intmat.HermiteNormalForm(t)
	if err != nil {
		if errors.Is(err, intmat.ErrRankDeficient) {
			return nil, ErrRank
		}
		return nil, err
	}
	return &Analysis{T: t, Set: set, H: h}, nil
}

// K returns the number of rows of T (the mapped array has K−1
// dimensions).
func (a *Analysis) K() int { return a.T.Rows() }

// N returns the algorithm dimension.
func (a *Analysis) N() int { return a.T.Cols() }

// NullBasis returns the basis u_{k+1}, …, u_n of the conflict-vector
// lattice (the trailing columns of the HNF multiplier U).
func (a *Analysis) NullBasis() []intmat.Vector { return a.H.NullBasis() }

// Combine returns the conflict-lattice vector γ = Σ β_t·u_{k+t}
// corresponding to the free coordinates β (Theorem 4.2, Equation 4.3).
func (a *Analysis) Combine(beta intmat.Vector) intmat.Vector {
	basis := a.NullBasis()
	if len(beta) != len(basis) {
		panic(fmt.Sprintf("conflict: Combine got %d coordinates, want %d", len(beta), len(basis)))
	}
	gamma := intmat.NewVector(a.N())
	for t, b := range basis {
		gamma = gamma.Add(b.Scale(beta[t]))
	}
	return gamma
}

// Result is the outcome of a conflict-freeness decision.
type Result struct {
	ConflictFree bool
	// Witness is a non-feasible conflict vector when ConflictFree is
	// false and the deciding method produces one (the exact procedure
	// and the brute force always do; closed-form theorem checks may
	// leave it nil).
	Witness intmat.Vector
	// Method names the deciding criterion, e.g. "theorem-3.1",
	// "theorem-4.7", "exact-factored-fallback".
	Method string
}

func (r Result) String() string {
	if r.ConflictFree {
		return fmt.Sprintf("conflict-free (%s)", r.Method)
	}
	if r.Witness != nil {
		return fmt.Sprintf("has conflicts, witness %v (%s)", r.Witness, r.Method)
	}
	return fmt.Sprintf("has conflicts (%s)", r.Method)
}

// Decide determines conflict-freeness of T over the index set. It
// splits T = [S; Π] into its first k−1 rows and its last row and runs
// SpaceAnalyzer.Decide, the criterion ladder of the paper: k = n is
// always conflict-free (rank(T) = n makes τ injective on Z^n), k = n−1
// is decided by Theorem 3.1's unique conflict vector, Theorems 4.7 and
// 4.8 certify k = n−2 and n−3, and Theorem 2.2 on the Theorem 4.2
// lattice decides the rest. A T without rows maps all of Z^n to one
// point: its conflict lattice is Z^n itself. ErrRank is returned when
// T does not have full row rank, and an int64 overflow as an
// *intmat.OverflowError.
func Decide(t *intmat.Matrix, set uda.IndexSet) (_ Result, err error) {
	defer intmat.Guard(&err)
	if t.Cols() != set.Dim() {
		return Result{}, fmt.Errorf("conflict: T has %d columns, index set dimension is %d", t.Cols(), set.Dim())
	}
	k := t.Rows()
	s := intmat.New(max(k-1, 0), t.Cols())
	for i := 0; i < k-1; i++ {
		s.SetRow(i, t.Row(i))
	}
	sa, err := NewSpaceAnalyzer(s, set)
	if errors.Is(err, intmat.ErrRankDeficient) {
		return Result{}, ErrRank
	}
	if err != nil {
		return Result{}, err
	}
	if k == 0 {
		ar := intmat.GetArena()
		defer intmat.PutArena(ar)
		res, err := sa.decideFromBasis(ar, sa.W)
		if res.Witness != nil {
			res.Witness = res.Witness.Clone() // off the arena PutArena recycles
		}
		return res, err
	}
	return sa.Decide(t.Row(k - 1))
}
