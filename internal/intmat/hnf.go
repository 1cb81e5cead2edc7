package intmat

import (
	"errors"
	"fmt"
	"math/big"
)

// ErrRankDeficient is returned by HermiteNormalForm when the input does
// not have full row rank, which the decomposition TU = [L, 0] with L
// nonsingular requires (Theorem 4.1 of the paper assumes rank(T) = k).
var ErrRankDeficient = errors.New("intmat: matrix does not have full row rank")

// HNF is the Hermite normal form decomposition of a full-row-rank
// integer matrix T ∈ Z^{k×n}:
//
//	T · U = H = [L, 0]
//
// where U ∈ Z^{n×n} is unimodular and L ∈ Z^{k×k} is lower triangular
// and nonsingular with positive diagonal (the paper's Theorem 4.1). The
// columns u_{k+1}, …, u_n of U (0-based: columns k…n-1) form a basis of
// the integer null space of T: by Theorem 4.2 every conflict vector of a
// mapping matrix T is an integral, relatively-prime combination of them.
type HNF struct {
	// T is the decomposed matrix (not copied; callers must not mutate it).
	T *Matrix
	// H = T·U = [L, 0].
	H *Matrix
	// U is the unimodular right multiplier.
	U *Matrix

	v *Matrix // cached U^{-1}
}

// HermiteNormalForm computes the column-style Hermite normal form of t.
// It returns ErrRankDeficient if rank(t) < t.Rows(), and an
// *OverflowError if an entry of the result exceeds int64. The
// computation first runs an overflow-checked int64 elimination (the
// common case for the small mapping matrices of the search engines) and
// falls back to arbitrary precision when an intermediate overflows, so
// only genuinely oversized results are rejected. The int64 fast path
// mirrors the arbitrary-precision elimination operation for operation,
// so the two produce identical decompositions.
func HermiteNormalForm(t *Matrix) (*HNF, error) {
	k, n := t.Rows(), t.Cols()
	if k > n {
		return nil, fmt.Errorf("intmat: HermiteNormalForm of %dx%d matrix: more rows than columns implies rank deficiency: %w", k, n, ErrRankDeficient)
	}
	H, U := t.Clone(), Identity(n)
	ok, rankDeficient := hnfFastInt64(H, U, k, n)
	if !ok {
		// An int64 intermediate overflowed: redo in arbitrary precision.
		// The big path replays the identical operation sequence, so it
		// yields the same decomposition whenever the final entries fit
		// in int64.
		return hermiteNormalFormBig(t)
	}
	if rankDeficient {
		return nil, ErrRankDeficient
	}
	return &HNF{T: t, H: H, U: U}, nil
}

// hnfFastInt64 runs the column elimination on H and U in checked int64.
// ok is false when an intermediate overflowed (H and U are then
// partially transformed garbage and the caller must fall back);
// rankDeficient reports a zero row, which the identical big-path
// replay would detect at the same step.
func hnfFastInt64(H, U *Matrix, k, n int) (ok, rankDeficient bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isOverflow := r.(*OverflowError); isOverflow {
				ok = false
				return
			}
			panic(r)
		}
	}()
	for r := 0; r < k; r++ {
		// Bring a non-zero entry to the pivot position (r, r) using the
		// columns at or to the right of r.
		if H.a[r*n+r] == 0 {
			p := -1
			for j := r + 1; j < n; j++ {
				if H.a[r*n+j] != 0 {
					p = j
					break
				}
			}
			if p < 0 {
				return true, true
			}
			H.swapCols(r, p)
			U.swapCols(r, p)
		}
		// Zero out the rest of row r with extended-Euclid column combos.
		for j := r + 1; j < n; j++ {
			b := H.a[r*n+j]
			if b == 0 {
				continue
			}
			a := H.a[r*n+r]
			g, x, y := ExtGCD(a, b)
			// [col_r col_j] ← [x·col_r + y·col_j, -(b/g)·col_r + (a/g)·col_j].
			u := negChecked(b / g)
			v := a / g
			H.combineCols(r, j, x, y, u, v)
			U.combineCols(r, j, x, y, u, v)
		}
		// Normalize the pivot sign.
		if H.a[r*n+r] < 0 {
			H.negCol(r)
			U.negCol(r)
		}
		// Reduce the entries left of the diagonal in row r modulo the
		// pivot.
		d := H.a[r*n+r]
		for j := 0; j < r; j++ {
			q := floorDiv(H.a[r*n+j], d)
			if q != 0 {
				H.addColMultiple(j, r, negChecked(q))
				U.addColMultiple(j, r, negChecked(q))
			}
		}
	}
	U.sizeReduce(k)
	return true, false
}

// colDotChecked returns the inner product of columns i and j in checked
// int64.
func (m *Matrix) colDotChecked(i, j int) int64 {
	var s int64
	for r := 0; r < m.rows; r++ {
		s = addChecked(s, mulChecked(m.a[r*m.cols+i], m.a[r*m.cols+j]))
	}
	return s
}

// sizeReduce is the checked-int64 mirror of bigMatrix.sizeReduce; see
// that function for the rationale. The sweep limits, the step rule and
// the reduction order match exactly so the two paths stay byte-equal.
func (m *Matrix) sizeReduce(k int) {
	n := m.cols
	if k >= n {
		return
	}
	// Phase 1: pairwise reduction of the null columns until fixpoint.
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for p := k; p < n; p++ {
			pp := m.colDotChecked(p, p)
			if pp == 0 {
				continue
			}
			for q := k; q < n; q++ {
				if p == q {
					continue
				}
				qp := m.colDotChecked(q, p)
				if !shortens(qp, pp) {
					continue
				}
				m.addColMultiple(q, p, negChecked(roundDiv(qp, pp)))
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Phase 2: reduce the pivot columns against the null lattice.
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for p := k; p < n; p++ {
			pp := m.colDotChecked(p, p)
			if pp == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				jp := m.colDotChecked(j, p)
				if !shortens(jp, pp) {
					continue
				}
				m.addColMultiple(j, p, negChecked(roundDiv(jp, pp)))
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// hermiteNormalFormBig is the arbitrary-precision reference elimination.
// It is both the overflow fallback of HermiteNormalForm and the oracle the
// differential tests compare the int64 fast path against.
func hermiteNormalFormBig(t *Matrix) (h *HNF, err error) {
	defer Guard(&err)
	k, n := t.Rows(), t.Cols()
	if k > n {
		return nil, fmt.Errorf("intmat: HermiteNormalForm of %dx%d matrix: more rows than columns implies rank deficiency: %w", k, n, ErrRankDeficient)
	}
	H := newBigMatrix(t)
	U := newBigIdentity(n)
	for r := 0; r < k; r++ {
		// Bring a non-zero entry to the pivot position (r, r) using the
		// columns at or to the right of r.
		if H.at(r, r).Sign() == 0 {
			p := -1
			for j := r + 1; j < n; j++ {
				if H.at(r, j).Sign() != 0 {
					p = j
					break
				}
			}
			if p < 0 {
				return nil, ErrRankDeficient
			}
			H.swapCols(r, p)
			U.swapCols(r, p)
		}
		// Zero out the rest of row r with extended-Euclid column combos:
		// each step replaces (col_r, col_j) by a unimodular combination
		// that leaves gcd(a, b) at (r, r) and 0 at (r, j).
		for j := r + 1; j < n; j++ {
			b := H.at(r, j)
			if b.Sign() == 0 {
				continue
			}
			a := H.at(r, r)
			g, x, y := bigExtGCD(a, b)
			// [col_r col_j] ← [x·col_r + y·col_j, -(b/g)·col_r + (a/g)·col_j];
			// the 2×2 transform has determinant (x·a + y·b)/g = 1.
			u := new(big.Int).Quo(b, g)
			u.Neg(u)
			v := new(big.Int).Quo(a, g)
			H.combineCols(r, j, x, y, u, v)
			U.combineCols(r, j, x, y, u, v)
		}
		// Normalize the pivot sign.
		if H.at(r, r).Sign() < 0 {
			H.negCol(r)
			U.negCol(r)
		}
		// Reduce the entries left of the diagonal in row r modulo the
		// pivot, keeping all U entries small. Column r is zero above row
		// r, so triangularity of the leading block is preserved.
		d := H.at(r, r)
		for j := 0; j < r; j++ {
			q := bigFloorDiv(H.at(r, j), d)
			if q.Sign() != 0 {
				q.Neg(q)
				H.addColMultiple(j, r, q)
				U.addColMultiple(j, r, q)
			}
		}
	}
	U.sizeReduce(k)
	return &HNF{T: t, H: H.toMatrix(), U: U.toMatrix()}, nil
}

// RowNullBasis returns a lattice basis of {a ∈ Z^q : h·a = 0} for a
// single non-zero row h — the q = 1 special case of the Hermite normal
// form, computed entirely in overflow-checked int64 (with a big.Int
// fallback through HermiteNormalForm on overflow). It is the hot inner
// step of the factored conflict decision: for T = [S; Π] with a fixed S
// the conflict lattice is recovered from the null basis of the single
// row Π·W. The basis vectors are columns of a unimodular matrix and
// hence primitive. An all-zero h is rejected with ErrRankDeficient.
func RowNullBasis(h Vector) (basis []Vector, err error) {
	return RowNullBasisAppend(nil, nil, h)
}

// RowNullBasisAppend is RowNullBasis with caller-provided storage: the
// basis vectors are appended to dst (pass a reused dst[:0] to avoid the
// slice-header allocation) and, when ar is non-nil, both the scratch and
// the returned vectors are arena-backed — valid until ar.Reset, so
// callers that keep a basis vector must clone it first. The overflow
// fallback allocates on the heap regardless of ar.
func RowNullBasisAppend(dst []Vector, ar *Arena, h Vector) ([]Vector, error) {
	bs, rankDeficient, ok := rowNullBasisFast(dst, ar, h)
	if ok {
		if rankDeficient {
			return nil, ErrRankDeficient
		}
		return bs, nil
	}
	// Overflow: fall back to the arbitrary-precision general path.
	hn, err := hermiteNormalFormBig(FromRows(h))
	if err != nil {
		return nil, err
	}
	return append(dst, hn.NullBasis()...), nil
}

// rowNullBasisFast is the checked-int64 single-row elimination. ok is
// false on intermediate overflow (dst is then unchanged in content but
// must be considered dirty; the callers re-append from the fallback).
func rowNullBasisFast(dst []Vector, ar *Arena, h Vector) (bs []Vector, rankDeficient, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isOverflow := r.(*OverflowError); isOverflow {
				ok = false
				return
			}
			panic(r)
		}
	}()
	q := len(h)
	var w Vector
	var u *Matrix
	if ar != nil {
		w = ar.Vec(q)
		copy(w, h)
		u = ar.Identity(q)
	} else {
		w = h.Clone()
		u = Identity(q)
	}
	// Bring a non-zero pivot to position 0.
	p := w.FirstNonZero()
	if p < 0 {
		return nil, true, true
	}
	if p != 0 {
		w[0], w[p] = w[p], w[0]
		u.swapCols(0, p)
	}
	for j := 1; j < q; j++ {
		if w[j] == 0 {
			continue
		}
		a, b := w[0], w[j]
		g, x, y := ExtGCD(a, b)
		// [col_0 col_j] ← [x·col_0 + y·col_j, -(b/g)·col_0 + (a/g)·col_j].
		u.combineCols(0, j, x, y, -(b / g), a/g)
		w[0], w[j] = g, 0
	}
	bs = dst
	for j := 1; j < q; j++ {
		var c Vector
		if ar != nil {
			c = ar.Vec(q)
		} else {
			c = make(Vector, q)
		}
		for i := 0; i < q; i++ {
			c[i] = u.a[i*q+j]
		}
		bs = append(bs, c)
	}
	return bs, false, true
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// L returns the leading k×k lower-triangular block of H.
func (h *HNF) L() *Matrix {
	k := h.T.Rows()
	rows := make([]int, k)
	cols := make([]int, k)
	for i := range rows {
		rows[i], cols[i] = i, i
	}
	return h.H.Submatrix(rows, cols)
}

// V returns U^{-1}, computed once and cached. In the paper's notation
// β = V·γ recovers the coordinates of a conflict vector γ in the column
// basis of U.
func (h *HNF) V() *Matrix {
	if h.v == nil {
		h.v = h.U.InverseUnimodular()
	}
	return h.v
}

// NullBasis returns the n-k trailing columns of U — a basis of the
// integer null space {γ : Tγ = 0}. Each basis vector is primitive
// (columns of a unimodular matrix always are) and the integral span of
// the basis is exactly the set of integral solutions (Theorem 4.2).
func (h *HNF) NullBasis() []Vector {
	k, n := h.T.Rows(), h.T.Cols()
	basis := make([]Vector, 0, n-k)
	for j := k; j < n; j++ {
		basis = append(basis, h.U.Col(j))
	}
	return basis
}

// NullityDim returns n - k, the dimension of the null space.
func (h *HNF) NullityDim() int { return h.T.Cols() - h.T.Rows() }

// Verify checks the defining properties of the decomposition: T·U = H,
// U unimodular, H = [L, 0] with L lower triangular with positive
// diagonal. It is used by tests and by callers that want defense in
// depth around the exact arithmetic.
func (h *HNF) Verify() error {
	k, n := h.T.Rows(), h.T.Cols()
	if !h.T.Mul(h.U).Equal(h.H) {
		return errors.New("intmat: HNF verify: T·U != H")
	}
	if !h.U.IsUnimodular() {
		return errors.New("intmat: HNF verify: U is not unimodular")
	}
	for i := 0; i < k; i++ {
		if h.H.At(i, i) <= 0 {
			return fmt.Errorf("intmat: HNF verify: diagonal entry H[%d][%d] = %d is not positive", i, i, h.H.At(i, i))
		}
		for j := i + 1; j < n; j++ {
			if h.H.At(i, j) != 0 {
				return fmt.Errorf("intmat: HNF verify: H[%d][%d] = %d above/right of the triangle is non-zero", i, j, h.H.At(i, j))
			}
		}
	}
	return nil
}
