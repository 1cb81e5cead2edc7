package conflict

import (
	"errors"
	"fmt"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// This file implements the factored conflict decision, the search
// acceleration the paper's Section 5 anticipates ("more sophisticated
// methods of finding the solution of Problem 2.2 may be possible …
// these necessary and sufficient conditions should be used to guide the
// solution search"). The observation generalizes Proposition 8.1 to
// any shape: for T = [S; Π] the null lattice of S does not depend on Π,
// so a basis W of null(S) ∩ Z^n can be computed once per space mapping;
// for each candidate Π only the row vector h = Π·W changes, and the
// conflict-vector lattice of T is W·(null lattice of h), obtained from
// the Hermite normal form of a single row — a few gcd steps instead of
// a full HNF of T. Procedure 5.1 evaluates thousands of candidates per
// search, so the factorization removes its dominant cost.

// SpaceAnalyzer caches the Π-independent part of conflict analysis for
// a fixed space mapping S over a fixed index set.
type SpaceAnalyzer struct {
	S   *intmat.Matrix
	Set uda.IndexSet
	// W is a lattice basis of null(S) ∩ Z^n (columns). For the empty
	// space mapping (0 rows) it is the identity basis.
	W []intmat.Vector
}

// NewSpaceAnalyzer validates S (full row rank, matching dimension) and
// computes the null(S) lattice basis.
func NewSpaceAnalyzer(s *intmat.Matrix, set uda.IndexSet) (*SpaceAnalyzer, error) {
	if s.Cols() != set.Dim() {
		return nil, fmt.Errorf("conflict: S has %d columns, index set dimension is %d", s.Cols(), set.Dim())
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	sa := &SpaceAnalyzer{S: s, Set: set}
	n := s.Cols()
	if s.Rows() == 0 {
		for j := 0; j < n; j++ {
			e := intmat.NewVector(n)
			e[j] = 1
			sa.W = append(sa.W, e)
		}
		return sa, nil
	}
	if s.Rows() == 1 {
		// One-row space mappings (linear arrays) are by far the most
		// common, and the joint optimizer builds one analyzer per
		// enumerated S — the single-row extended-gcd reduction computes
		// the same null lattice as the general Hermite form without its
		// arbitrary-precision cost.
		w, err := intmat.RowNullBasis(s.Row(0))
		if err != nil {
			if errors.Is(err, intmat.ErrRankDeficient) {
				return nil, fmt.Errorf("conflict: space mapping: %w", err)
			}
			return nil, err
		}
		sa.W = w
		return sa, nil
	}
	h, err := intmat.HermiteNormalForm(s)
	if err != nil {
		return nil, fmt.Errorf("conflict: space mapping: %w", err)
	}
	sa.W = h.NullBasis()
	return sa, nil
}

// sizeReduceBasis applies pairwise Lagrange-style size reduction in
// place, stepping only where a step strictly shortens a vector
// (intmat.SizeReduceStep), so it ends at a fixpoint instead of trading
// tie steps until its sweep cap. The transform is unimodular, so the
// generated lattice is unchanged, but the entries get small — which
// matters because the sign-pattern certificates of Theorems 4.7/4.8 are
// basis-sensitive and succeed far more often on reduced bases. Products
// are checked: an overflow panics with *intmat.OverflowError (see
// intmat.Guard).
func sizeReduceBasis(basis []intmat.Vector) {
	if len(basis) < 2 {
		return
	}
	for sweep := 0; sweep < 32; sweep++ {
		changed := false
		for p := range basis {
			pp := basis[p].Dot(basis[p])
			if pp == 0 {
				continue
			}
			for q := range basis {
				if p != q && intmat.SizeReduceStep(basis[q], basis[p], basis[q].Dot(basis[p]), pp) {
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// Decide determines conflict-freeness of [S; Π] exactly, using the
// factored basis and the same criterion ladder as the package-level
// Decide. It runs the fresh decision of DecideScratch on a pooled
// scratch, without the conflict-vector table or the decision cache.
// ErrRank is returned when Π is a rational combination of the rows of
// S (rank(T) < k).
func (sa *SpaceAnalyzer) Decide(pi intmat.Vector) (Result, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	h, err := sa.project(sc, pi)
	if err != nil {
		return Result{}, err
	}
	return sa.decideFresh(sc, h)
}

// decideFromBasis runs the criterion ladder over a size-reduced basis
// of the conflict-vector lattice of [S; Π], with scratch from ar. The
// basis may be arena-backed — any vector that escapes into the Result
// goes through Canonical or Clone, which copy.
func (sa *SpaceAnalyzer) decideFromBasis(ar *intmat.Arena, basis []intmat.Vector) (Result, error) {
	set := sa.Set
	switch len(basis) {
	case 0:
		return Result{ConflictFree: true, Method: "full-rank-injective"}, nil
	case 1:
		gamma := basis[0].Canonical()
		if Feasible(set, gamma) {
			return Result{ConflictFree: true, Method: "theorem-3.1"}, nil
		}
		return Result{ConflictFree: false, Witness: gamma, Method: "theorem-3.1"}, nil
	case 2:
		if theorem47Basis(basis, set) {
			return Result{ConflictFree: true, Method: "theorem-4.7"}, nil
		}
	case 3:
		if theorem48Basis(basis, set) {
			return Result{ConflictFree: true, Method: "theorem-4.8"}, nil
		}
	default:
		if theorem45Basis(basis, set) {
			return Result{ConflictFree: true, Method: "theorem-4.5"}, nil
		}
	}
	// Cheap exact rejections before the walk: any lattice vector inside
	// the box certifies a conflict (its primitive part is a
	// non-feasible conflict vector). Check the basis vectors themselves
	// (the contrapositive of Theorem 4.4) and their pairwise sums and
	// differences — on size-reduced bases these catch almost every
	// conflicting candidate the optimizers probe.
	if w, found := quickConflictWitness(basis, set); found {
		return Result{ConflictFree: false, Witness: w, Method: "theorem-4.4-witness"}, nil
	}
	w, err := exactWitness(ar, basis, set.Upper)
	if err != nil {
		return Result{}, err
	}
	return Result{ConflictFree: w == nil, Witness: w, Method: "exact-factored-fallback"}, nil
}

// quickConflictWitness scans small integral combinations of the basis
// (each vector, pairwise sums/differences) for one inside the box.
func quickConflictWitness(basis []intmat.Vector, set uda.IndexSet) (intmat.Vector, bool) {
	inBox := func(v intmat.Vector) bool {
		for i, x := range v {
			if x < 0 {
				x = -x
			}
			if x > set.Upper[i] {
				return false
			}
		}
		return true
	}
	for _, u := range basis {
		if inBox(u) {
			return u.Canonical(), true
		}
	}
	for p := 0; p < len(basis); p++ {
		for q := p + 1; q < len(basis); q++ {
			if s := basis[p].Add(basis[q]); inBox(s) {
				return s.Canonical(), true
			}
			if d := basis[p].Sub(basis[q]); inBox(d) {
				return d.Canonical(), true
			}
		}
	}
	return nil, false
}
