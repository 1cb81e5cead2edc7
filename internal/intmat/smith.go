package intmat

import (
	"fmt"
	"math/big"
)

// SNF is a Smith normal form decomposition of an integer matrix A:
//
//	P · A · Q = D
//
// with P, Q unimodular and D diagonal, d_1 | d_2 | … | d_r > 0 (the
// invariant factors), zero elsewhere. The Smith form complements the
// Hermite form in the lattice toolkit: the product of invariant factors
// of a lattice basis is the index of the lattice in its saturation,
// which the tests use to prove two bases generate the same lattice, and
// the invariant factors of a mapping matrix T describe the structure of
// Z^k / T·Z^n — how densely the mapping's image covers processor-time
// coordinates.
type SNF struct {
	A *Matrix // the decomposed matrix (not copied)
	P *Matrix // k×k unimodular row multiplier
	D *Matrix // k×n diagonal with divisibility chain
	Q *Matrix // n×n unimodular column multiplier
}

// SmithNormalForm computes the decomposition exactly. An
// overflow-checked int64 elimination handles the common small inputs;
// on intermediate overflow the computation reruns in big.Int (the
// result must then fit in int64 or *OverflowError is returned through
// the error). The int64 fast path mirrors the arbitrary-precision
// elimination operation for operation — same minimal-pivot choice, same
// restart points — so the two produce identical decompositions.
func SmithNormalForm(a *Matrix) (*SNF, error) {
	k, n := a.Rows(), a.Cols()
	D, P, Q := a.Clone(), Identity(k), Identity(n)
	if !smithFastInt64(D, P, Q, k, n) {
		return smithNormalFormBig(a)
	}
	return &SNF{A: a, P: P, D: D, Q: Q}, nil
}

// addRowMultiple performs row_dst += c · row_src in checked int64.
func (m *Matrix) addRowMultiple(dst, src int, c int64) {
	if c == 0 {
		return
	}
	for j := 0; j < m.cols; j++ {
		m.a[dst*m.cols+j] = addChecked(m.a[dst*m.cols+j], mulChecked(c, m.a[src*m.cols+j]))
	}
}

// smithFastInt64 runs the Smith elimination on D, P, Q in checked
// int64, returning false when an intermediate overflowed (the matrices
// are then partially transformed garbage and the caller must fall
// back). The control flow replicates smithNormalFormBig exactly.
func smithFastInt64(D, P, Q *Matrix, k, n int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isOverflow := r.(*OverflowError); isOverflow {
				ok = false
				return
			}
			panic(r)
		}
	}()
	r := 0
	for r < k && r < n {
		// Find a pivot: entry of minimal non-zero magnitude in the
		// trailing block.
		pi, pj := -1, -1
		var best int64
		for i := r; i < k; i++ {
			for j := r; j < n; j++ {
				v := D.a[i*n+j]
				if v == 0 {
					continue
				}
				av := absChecked(v)
				if pi < 0 || av < best {
					pi, pj, best = i, j, av
				}
			}
		}
		if pi < 0 {
			break // trailing block all zero
		}
		D.swapRows(r, pi)
		P.swapRows(r, pi)
		D.swapCols(r, pj)
		Q.swapCols(r, pj)

		// Clear row r and column r by Euclidean reduction; any non-zero
		// remainder is swapped into the pivot position (it is strictly
		// smaller, so this terminates) and the scan restarts.
	elim:
		for {
			p := D.a[r*n+r]
			for i := r + 1; i < k; i++ {
				v := D.a[i*n+r]
				if v == 0 {
					continue
				}
				q := v / p
				if q != 0 {
					D.addRowMultiple(i, r, negChecked(q))
					P.addRowMultiple(i, r, negChecked(q))
				}
				if D.a[i*n+r] != 0 {
					D.swapRows(r, i)
					P.swapRows(r, i)
					continue elim
				}
			}
			for j := r + 1; j < n; j++ {
				v := D.a[r*n+j]
				if v == 0 {
					continue
				}
				q := v / p
				if q != 0 {
					D.addColMultiple(j, r, negChecked(q))
					Q.addColMultiple(j, r, negChecked(q))
				}
				if D.a[r*n+j] != 0 {
					D.swapCols(r, j)
					Q.swapCols(r, j)
					continue elim
				}
			}
			break
		}
		// Divisibility fix-up: the pivot must divide every remaining
		// entry; if some D[i][j] resists, fold its row in and restart
		// this pivot position.
		p := D.a[r*n+r]
		fixed := false
		for i := r + 1; i < k && !fixed; i++ {
			for j := r + 1; j < n && !fixed; j++ {
				if D.a[i*n+j]%p != 0 {
					D.addRowMultiple(r, i, 1)
					P.addRowMultiple(r, i, 1)
					fixed = true
				}
			}
		}
		if fixed {
			continue // re-run elimination at the same r
		}
		if p < 0 {
			D.negCol(r)
			Q.negCol(r)
		}
		r++
	}
	return true
}

// smithNormalFormBig is the arbitrary-precision reference elimination —
// the overflow fallback of SmithNormalForm and the oracle for the
// differential tests.
func smithNormalFormBig(a *Matrix) (s *SNF, err error) {
	defer Guard(&err)
	k, n := a.Rows(), a.Cols()
	D := newBigMatrix(a)
	P := newBigIdentity(k)
	Q := newBigIdentity(n)

	addRowMultiple := func(m *bigMatrix, dst, src int, c *big.Int) {
		var t big.Int
		for j := 0; j < m.cols; j++ {
			t.Mul(c, m.a[src*m.cols+j])
			m.a[dst*m.cols+j].Add(m.a[dst*m.cols+j], &t)
		}
	}
	swapRows := func(m *bigMatrix, i, j int) {
		if i == j {
			return
		}
		for c := 0; c < m.cols; c++ {
			m.a[i*m.cols+c], m.a[j*m.cols+c] = m.a[j*m.cols+c], m.a[i*m.cols+c]
		}
	}

	r := 0
	for r < k && r < n {
		// Find a pivot: entry of minimal non-zero magnitude in the
		// trailing block (minimal pivots keep coefficients small).
		pi, pj := -1, -1
		var best big.Int
		for i := r; i < k; i++ {
			for j := r; j < n; j++ {
				v := D.at(i, j)
				if v.Sign() == 0 {
					continue
				}
				var av big.Int
				av.Abs(v)
				if pi < 0 || av.Cmp(&best) < 0 {
					pi, pj, best = i, j, *new(big.Int).Set(&av)
				}
			}
		}
		if pi < 0 {
			break // trailing block all zero
		}
		swapRows(D, r, pi)
		swapRows(P, r, pi)
		D.swapCols(r, pj)
		Q.swapCols(r, pj)

		// Clear row r and column r by Euclidean reduction. After any
		// swap the pivot changes (it strictly shrinks in magnitude, so
		// this terminates); restart the scan with the fresh pivot —
		// note D.at returns the cell's *big.Int, which a swap silently
		// re-homes, so the pivot must be re-read every round.
	elim:
		for {
			p := new(big.Int).Set(D.at(r, r))
			for i := r + 1; i < k; i++ {
				v := D.at(i, r)
				if v.Sign() == 0 {
					continue
				}
				q := new(big.Int).Quo(v, p)
				if q.Sign() != 0 {
					nq := new(big.Int).Neg(q)
					addRowMultiple(D, i, r, nq)
					addRowMultiple(P, i, r, nq)
				}
				if D.at(i, r).Sign() != 0 {
					// Remainder smaller than the pivot: swap it up and
					// restart with the shrunken pivot.
					swapRows(D, r, i)
					swapRows(P, r, i)
					continue elim
				}
			}
			for j := r + 1; j < n; j++ {
				v := D.at(r, j)
				if v.Sign() == 0 {
					continue
				}
				q := new(big.Int).Quo(v, p)
				if q.Sign() != 0 {
					nq := new(big.Int).Neg(q)
					D.addColMultiple(j, r, nq)
					Q.addColMultiple(j, r, nq)
				}
				if D.at(r, j).Sign() != 0 {
					D.swapCols(r, j)
					Q.swapCols(r, j)
					continue elim
				}
			}
			break
		}
		// Divisibility fix-up: the pivot must divide every remaining
		// entry; if some D[i][j] resists, fold its row in and restart
		// this pivot position.
		p := D.at(r, r)
		fixed := false
		for i := r + 1; i < k && !fixed; i++ {
			for j := r + 1; j < n && !fixed; j++ {
				var m big.Int
				m.Mod(D.at(i, j), p)
				if m.Sign() != 0 {
					addRowMultiple(D, r, i, big.NewInt(1))
					addRowMultiple(P, r, i, big.NewInt(1))
					fixed = true
				}
			}
		}
		if fixed {
			continue // re-run elimination at the same r
		}
		if p.Sign() < 0 {
			D.negCol(r)
			Q.negCol(r)
		}
		r++
	}
	return &SNF{A: a, P: P.toMatrix(), D: D.toMatrix(), Q: Q.toMatrix()}, nil
}

// InvariantFactors returns d_1, …, d_r (positive, each dividing the
// next).
func (s *SNF) InvariantFactors() []int64 {
	var fs []int64
	for i := 0; i < s.D.Rows() && i < s.D.Cols(); i++ {
		if v := s.D.At(i, i); v != 0 {
			fs = append(fs, v)
		}
	}
	return fs
}

// Rank returns the number of invariant factors.
func (s *SNF) Rank() int { return len(s.InvariantFactors()) }

// Verify checks P·A·Q = D, unimodularity of P and Q, diagonality, and
// the divisibility chain.
func (s *SNF) Verify() error {
	if !s.P.Mul(s.A).Mul(s.Q).Equal(s.D) {
		return fmt.Errorf("intmat: SNF verify: P·A·Q != D")
	}
	if !s.P.IsUnimodular() || !s.Q.IsUnimodular() {
		return fmt.Errorf("intmat: SNF verify: multiplier not unimodular")
	}
	for i := 0; i < s.D.Rows(); i++ {
		for j := 0; j < s.D.Cols(); j++ {
			if i != j && s.D.At(i, j) != 0 {
				return fmt.Errorf("intmat: SNF verify: off-diagonal D[%d][%d] = %d", i, j, s.D.At(i, j))
			}
		}
	}
	fs := s.InvariantFactors()
	for i := range fs {
		if fs[i] <= 0 {
			return fmt.Errorf("intmat: SNF verify: invariant factor %d = %d not positive", i, fs[i])
		}
		if i > 0 && fs[i]%fs[i-1] != 0 {
			return fmt.Errorf("intmat: SNF verify: divisibility broken: %d ∤ %d", fs[i-1], fs[i])
		}
		// The zero diagonal (if any) must follow the non-zero prefix.
	}
	for i := len(fs); i < min(s.D.Rows(), s.D.Cols()); i++ {
		if s.D.At(i, i) != 0 {
			return fmt.Errorf("intmat: SNF verify: zero factor before non-zero at %d", i)
		}
	}
	return nil
}

// LatticeIndex returns the index [L₂ : L₁] of the lattice generated by
// the columns of b1 inside the lattice generated by the columns of b2,
// when b1's lattice is a finite-index sublattice; ok is false when it
// is not a sublattice or the index is infinite. Both matrices must have
// the same number of rows. Index 1 means the lattices are equal — the
// exact test the factored conflict analysis is validated with.
func LatticeIndex(b1, b2 *Matrix) (index int64, ok bool) {
	if b1.Rows() != b2.Rows() {
		return 0, false
	}
	// Solve b2 · X = b1 over the rationals via the Smith form of b2:
	// X = Q · D⁺ · P · b1 must be integral, and the ranks must agree.
	s, err := SmithNormalForm(b2)
	if err != nil {
		return 0, false
	}
	r := s.Rank()
	if b2.Cols() != r || b1.Cols() != r {
		// Basis matrices with dependent columns are out of scope.
		return 0, false
	}
	pb := s.P.Mul(b1) // k×r
	// Rows ≥ r of P·b1 must vanish (otherwise b1 ⊄ span(b2)).
	for i := r; i < pb.Rows(); i++ {
		for j := 0; j < pb.Cols(); j++ {
			if pb.At(i, j) != 0 {
				return 0, false
			}
		}
	}
	x := New(b2.Cols(), r)
	for i := 0; i < r; i++ {
		d := s.D.At(i, i)
		for j := 0; j < r; j++ {
			v := pb.At(i, j)
			if v%d != 0 {
				return 0, false // not integral: not a sublattice
			}
			x.Set(i, j, v/d)
		}
	}
	x = s.Q.Mul(x)
	det := x.Det()
	if det < 0 {
		det = -det
	}
	if det == 0 {
		return 0, false
	}
	return det, true
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
