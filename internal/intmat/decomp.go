package intmat

import "fmt"

// Det returns the determinant of a square matrix, computed exactly with
// fraction-free Bareiss elimination (DetIn on heap scratch).
// Intermediate values that overflow int64 are transparently recomputed
// with arbitrary precision; the function panics with *OverflowError
// only if the determinant itself does not fit in int64. It panics if m
// is not square.
func (m *Matrix) Det() int64 { return DetIn(nil, m) }

// Rank returns the rank of m, computed exactly with fraction-free
// Bareiss elimination with full pivoting.
func (m *Matrix) Rank() int {
	w := m.Clone()
	rows, cols := w.rows, w.cols
	prev := int64(1)
	r := 0
	for r < rows && r < cols {
		// Find any non-zero pivot in the trailing block.
		pi, pj := -1, -1
	search:
		for i := r; i < rows; i++ {
			for j := r; j < cols; j++ {
				if w.At(i, j) != 0 {
					pi, pj = i, j
					break search
				}
			}
		}
		if pi < 0 {
			break
		}
		w.swapRows(r, pi)
		w.swapCols(r, pj)
		p := w.At(r, r)
		for i := r + 1; i < rows; i++ {
			for j := r + 1; j < cols; j++ {
				num := subChecked(mulChecked(w.At(i, j), p), mulChecked(w.At(i, r), w.At(r, j)))
				w.Set(i, j, num/prev)
			}
			w.Set(i, r, 0)
		}
		prev = p
		r++
	}
	return r
}

// Adjugate returns the adjugate (classical adjoint) of a square matrix:
// Adj(m)[i][j] is the (j, i) cofactor, so that m·Adj(m) = det(m)·I
// (AdjugateInto on heap scratch).
func (m *Matrix) Adjugate() *Matrix { return AdjugateInto(New(m.rows, m.cols), nil, m) }

// IsUnimodular reports whether m is square, integral (always true here)
// and has determinant ±1.
func (m *Matrix) IsUnimodular() bool {
	if m.rows != m.cols {
		return false
	}
	d := m.Det()
	return d == 1 || d == -1
}

// InverseUnimodular returns the exact integral inverse of a unimodular
// matrix (V = U^{-1} in the paper's notation). It panics if m is not
// unimodular.
func (m *Matrix) InverseUnimodular() *Matrix {
	if m.rows != m.cols {
		panic("intmat: InverseUnimodular of non-square matrix")
	}
	d := m.Det()
	switch d {
	case 1:
		return m.Adjugate()
	case -1:
		return m.Adjugate().Neg()
	default:
		panic(fmt.Sprintf("intmat: InverseUnimodular of matrix with determinant %d", d))
	}
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.cols; c++ {
		m.a[i*m.cols+c], m.a[j*m.cols+c] = m.a[j*m.cols+c], m.a[i*m.cols+c]
	}
}

func (m *Matrix) swapCols(i, j int) {
	if i == j {
		return
	}
	for r := 0; r < m.rows; r++ {
		m.a[r*m.cols+i], m.a[r*m.cols+j] = m.a[r*m.cols+j], m.a[r*m.cols+i]
	}
}

// addColMultiple performs col_dst += c · col_src.
func (m *Matrix) addColMultiple(dst, src int, c int64) {
	if c == 0 {
		return
	}
	for r := 0; r < m.rows; r++ {
		m.a[r*m.cols+dst] = addChecked(m.a[r*m.cols+dst], mulChecked(c, m.a[r*m.cols+src]))
	}
}

// negCol negates column j in place.
func (m *Matrix) negCol(j int) {
	for r := 0; r < m.rows; r++ {
		m.a[r*m.cols+j] = negChecked(m.a[r*m.cols+j])
	}
}

// combineCols applies the 2x2 unimodular column transform
//
//	[col_i, col_j] ← [x·col_i + y·col_j,  u·col_i + v·col_j]
//
// where x·v - y·u = ±1 is the caller's responsibility.
func (m *Matrix) combineCols(i, j int, x, y, u, v int64) {
	for r := 0; r < m.rows; r++ {
		a, b := m.a[r*m.cols+i], m.a[r*m.cols+j]
		m.a[r*m.cols+i] = addChecked(mulChecked(x, a), mulChecked(y, b))
		m.a[r*m.cols+j] = addChecked(mulChecked(u, a), mulChecked(v, b))
	}
}
