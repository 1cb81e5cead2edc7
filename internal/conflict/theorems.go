package conflict

import (
	"errors"
	"fmt"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// This file implements the closed-form conditions of Section 4,
// Theorems 4.3, 4.4, 4.5, 4.6, 4.7 and 4.8, on the Theorem 4.2
// representation of the conflict vectors.

// ErrBudget reports that the exact enumeration would visit more lattice
// points than its budget allows.
var ErrBudget = errors.New("conflict: exact enumeration budget exceeded")

// enumBudget caps the box an exact decision walks (walkBox). A box
// never holds more points than the β box ∏(2·Σ_i |v_{t,i}|·μ_i + 1) of
// the rows of V = U⁻¹ (DESIGN.md), so every decision within this budget
// there stays within it here. The mapping problems of the paper stay
// far below it.
const enumBudget = 50_000_000

// Theorem43 checks necessary condition 2: in every column of V = U⁻¹,
// at least one of the first k entries must be non-zero. A violation
// means some unit vector e_i is itself a conflict vector, which can
// never be feasible (|(e_i)_i| = 1 ≤ μ_i).
func (a *Analysis) Theorem43() bool {
	V := a.H.V()
	k, n := a.K(), a.N()
	for j := 0; j < n; j++ {
		nonZero := false
		for i := 0; i < k; i++ {
			if V.At(i, j) != 0 {
				nonZero = true
				break
			}
		}
		if !nonZero {
			return false
		}
	}
	return true
}

// Theorem44 checks necessary condition 3: every null-basis column
// u_{k+1}, …, u_n must itself be a feasible conflict vector.
func (a *Analysis) Theorem44() bool {
	for _, u := range a.NullBasis() {
		if !Feasible(a.Set, u) {
			return false
		}
	}
	return true
}

// Theorem45 checks sufficient condition 4: there exist n−k rows
// i_1, …, i_{n−k} of the null block of U such that (1) each row's gcd
// exceeds its bound, gcd(u_{i,k+1}, …, u_{i,n}) ≥ μ_i + 1, and (2) the
// (n−k)×(n−k) submatrix they form is nonsingular. When it holds, T is
// conflict-free (the converse fails in general — the condition is only
// sufficient).
func (a *Analysis) Theorem45() bool { return theorem45Basis(a.NullBasis(), a.Set) }

func theorem45Basis(basis []intmat.Vector, set uda.IndexSet) bool {
	n := set.Dim()
	// Candidate rows: those whose gcd across the null columns beats μ_i.
	var candidates []int
	for i := 0; i < n; i++ {
		vals := make([]int64, len(basis))
		for t, u := range basis {
			vals[t] = u[i]
		}
		if g := intmat.GCDAll(vals...); g >= set.Upper[i]+1 {
			candidates = append(candidates, i)
		}
	}
	need := len(basis)
	if len(candidates) < need {
		return false
	}
	// Search all size-(n−k) subsets for a nonsingular minor.
	rowsOf := func(idx []int) *intmat.Matrix {
		m := intmat.New(len(idx), need)
		for r, i := range idx {
			for t, u := range basis {
				m.Set(r, t, u[i])
			}
		}
		return m
	}
	var pick func(start int, chosen []int) bool
	pick = func(start int, chosen []int) bool {
		if len(chosen) == need {
			return rowsOf(chosen).Det() != 0
		}
		for c := start; c < len(candidates); c++ {
			if pick(c+1, append(chosen, candidates[c])) {
				return true
			}
		}
		return false
	}
	return pick(0, nil)
}

// sameSign reports whether a and b can be assigned the same sign, with
// zero counting as either sign (the paper's convention in Theorems
// 4.6–4.8: "let the sign of the number zero be defined as either
// positive or negative").
func sameSign(a, b int64) bool { return a == 0 || b == 0 || (a > 0) == (b > 0) }

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// Theorem46 checks sufficient condition 5 for T ∈ Z^{(n−2)×n}:
//
//  1. there exists i with gcd(u_{i,n−1}, u_{i,n}) ≥ μ_i + 1, and
//  2. for the (unique up to sign) relatively prime pair (β_{n−1}, β_n)
//     with β_{n−1}·u_{i,n−1} + β_n·u_{i,n} = 0, there exists j ≠ i with
//     |β_{n−1}·u_{j,n−1} + β_n·u_{j,n}| > μ_j.
//
// Any combination with a non-zero i-th entry γ_i must have |γ_i| ≥
// gcd ≥ μ_i + 1; combinations that zero the i-th entry are exactly the
// integer multiples of the (β_{n−1}, β_n) pair, covered by condition 2.
// It panics if the analysis is not of codimension 2.
func (a *Analysis) Theorem46() bool {
	basis := a.NullBasis()
	if len(basis) != 2 {
		panic(fmt.Sprintf("conflict: Theorem46 needs n-k = 2, have %d", len(basis)))
	}
	return theorem46Basis(basis, a.Set)
}

func theorem46Basis(basis []intmat.Vector, set uda.IndexSet) bool {
	u1, u2 := basis[0], basis[1]
	n := set.Dim()
	for i := 0; i < n; i++ {
		g := intmat.GCD(u1[i], u2[i])
		if g < set.Upper[i]+1 {
			continue
		}
		// The kernel pair of row i: (β1, β2) ∝ (u2[i]/g, −u1[i]/g),
		// relatively prime by construction (g non-zero since g ≥ μ+1 ≥ 2).
		b1, b2 := u2[i]/g, -(u1[i] / g)
		ok := false
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if abs64(b1*u1[j]+b2*u2[j]) > set.Upper[j] {
				ok = true
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Theorem47 checks the necessary-and-sufficient condition for
// T ∈ Z^{(n−2)×n} (two null-basis columns u_{n−1}, u_n):
//
//	(1) ∃i: u_{i,n−1}·u_{i,n} ≥ 0 and |u_{i,n−1} + u_{i,n}| > μ_i
//	(2) ∃j: u_{j,n−1}·u_{j,n} ≤ 0 and |u_{j,n−1} − u_{j,n}| > μ_j
//	(3) u_{n−1} and u_n are feasible conflict vectors.
//
// It panics if the analysis is not of codimension 2.
func (a *Analysis) Theorem47() bool {
	basis := a.NullBasis()
	if len(basis) != 2 {
		panic(fmt.Sprintf("conflict: Theorem47 needs n-k = 2, have %d", len(basis)))
	}
	return theorem47Basis(basis, a.Set)
}

func theorem47Basis(basis []intmat.Vector, set uda.IndexSet) bool {
	u1, u2 := basis[0], basis[1]
	n := set.Dim()
	cond1, cond2 := false, false
	for i := 0; i < n; i++ {
		if sameSign(u1[i], u2[i]) && abs64(u1[i]+u2[i]) > set.Upper[i] {
			cond1 = true
		}
		if sameSign(u1[i], -u2[i]) && abs64(u1[i]-u2[i]) > set.Upper[i] {
			cond2 = true
		}
	}
	return cond1 && cond2 && Feasible(set, u1) && Feasible(set, u2)
}

// Theorem48 checks the necessary-and-sufficient condition for
// T ∈ Z^{(n−3)×n} (three null-basis columns u_{n−2}, u_{n−1}, u_n).
// With the sign of zero free, the four sign patterns (+,+,+), (+,+,−),
// (+,−,+) and (−,+,+) of (β_{n−2}, β_{n−1}, β_n) each need a row whose
// correspondingly-signed combination exceeds its bound, and each basis
// column must itself be feasible (covering the patterns with zeros).
func (a *Analysis) Theorem48() bool {
	basis := a.NullBasis()
	if len(basis) != 3 {
		panic(fmt.Sprintf("conflict: Theorem48 needs n-k = 3, have %d", len(basis)))
	}
	return theorem48Basis(basis, a.Set)
}

func theorem48Basis(basis []intmat.Vector, set uda.IndexSet) bool {
	u1, u2, u3 := basis[0], basis[1], basis[2]
	n := set.Dim()
	// signs[s] = (s1, s2, s3) pattern; condition c holds if some row i
	// has s1·u1[i], s2·u2[i], s3·u3[i] all assignable the same sign and
	// |s1·u1[i] + s2·u2[i] + s3·u3[i]| > μ_i.
	patterns := [4][3]int64{
		{1, 1, 1},
		{1, 1, -1},
		{1, -1, 1},
		{-1, 1, 1},
	}
	for _, p := range patterns {
		ok := false
		for i := 0; i < n; i++ {
			a1, a2, a3 := p[0]*u1[i], p[1]*u2[i], p[2]*u3[i]
			if sameSign(a1, a2) && sameSign(a2, a3) && sameSign(a1, a3) &&
				abs64(a1+a2+a3) > set.Upper[i] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	// Pairwise combinations with one β zero reduce to the codimension-2
	// argument on each pair of columns; single-column cases reduce to
	// feasibility of the columns themselves.
	pairs := [3][2]intmat.Vector{{u1, u2}, {u1, u3}, {u2, u3}}
	for _, pr := range pairs {
		cond1, cond2 := false, false
		for i := 0; i < n; i++ {
			x, y := pr[0][i], pr[1][i]
			if sameSign(x, y) && abs64(x+y) > set.Upper[i] {
				cond1 = true
			}
			if sameSign(x, -y) && abs64(x-y) > set.Upper[i] {
				cond2 = true
			}
		}
		if !cond1 || !cond2 {
			return false
		}
	}
	return Feasible(set, u1) && Feasible(set, u2) && Feasible(set, u3)
}
