package intmat

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major integer matrix.
type Matrix struct {
	rows, cols int
	a          []int64
}

// New returns a zero matrix with the given shape. It panics if either
// dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("intmat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, a: make([]int64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have the same
// length. An empty argument list yields the 0x0 matrix.
func FromRows(rows ...[]int64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("intmat: ragged rows: row %d has %d entries, want %d", i, len(r), cols))
		}
		copy(m.a[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) int64 {
	m.check(i, j)
	return m.a[i*m.cols+j]
}

// Set assigns the entry at row i, column j.
func (m *Matrix) Set(i, j int, v int64) {
	m.check(i, j)
	m.a[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("intmat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.a, m.a)
	return c
}

// Equal reports whether m and o have the same shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.a {
		if m.a[i] != o.a[i] {
			return false
		}
	}
	return true
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) Vector {
	m.check(i, 0)
	r := make(Vector, m.cols)
	copy(r, m.a[i*m.cols:(i+1)*m.cols])
	return r
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	m.check(0, j)
	c := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		c[i] = m.a[i*m.cols+j]
	}
	return c
}

// SetRow overwrites row i with v.
func (m *Matrix) SetRow(i int, v Vector) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("intmat: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.a[i*m.cols:(i+1)*m.cols], v)
}

// SetCol overwrites column j with v.
func (m *Matrix) SetCol(j int, v Vector) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("intmat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.a[i*m.cols+j] = v[i]
	}
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.a[j*t.cols+i] = m.a[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·o. It panics on shape mismatch and
// with *OverflowError on int64 overflow.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("intmat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.a[i*m.cols+k]
			if mik == 0 {
				continue
			}
			for j := 0; j < o.cols; j++ {
				p.a[i*p.cols+j] = addChecked(p.a[i*p.cols+j], mulChecked(mik, o.a[k*o.cols+j]))
			}
		}
	}
	return p
}

// MulVec returns the matrix-vector product m·v (v as a column vector).
func (m *Matrix) MulVec(v Vector) Vector {
	if m.cols != len(v) {
		panic(fmt.Sprintf("intmat: MulVec shape mismatch %dx%d · %d", m.rows, m.cols, len(v)))
	}
	p := make(Vector, m.rows)
	for i := range p {
		var s int64
		for j := 0; j < m.cols; j++ {
			s = addChecked(s, mulChecked(m.a[i*m.cols+j], v[j]))
		}
		p[i] = s
	}
	return p
}

// VecMul returns the vector-matrix product v·m (v as a row vector).
func (m *Matrix) VecMul(v Vector) Vector {
	if m.rows != len(v) {
		panic(fmt.Sprintf("intmat: VecMul shape mismatch %d · %dx%d", len(v), m.rows, m.cols))
	}
	p := make(Vector, m.cols)
	for j := range p {
		var s int64
		for i := 0; i < m.rows; i++ {
			s = addChecked(s, mulChecked(v[i], m.a[i*m.cols+j]))
		}
		p[j] = s
	}
	return p
}

// Add returns m + o entrywise.
func (m *Matrix) Add(o *Matrix) *Matrix {
	if m.rows != o.rows || m.cols != o.cols {
		panic("intmat: Add shape mismatch")
	}
	r := New(m.rows, m.cols)
	for i := range r.a {
		r.a[i] = addChecked(m.a[i], o.a[i])
	}
	return r
}

// Sub returns m - o entrywise.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	if m.rows != o.rows || m.cols != o.cols {
		panic("intmat: Sub shape mismatch")
	}
	r := New(m.rows, m.cols)
	for i := range r.a {
		r.a[i] = subChecked(m.a[i], o.a[i])
	}
	return r
}

// Scale returns c·m.
func (m *Matrix) Scale(c int64) *Matrix {
	r := New(m.rows, m.cols)
	for i := range r.a {
		r.a[i] = mulChecked(c, m.a[i])
	}
	return r
}

// Neg returns -m.
func (m *Matrix) Neg() *Matrix { return m.Scale(-1) }

// IsZero reports whether all entries are zero.
func (m *Matrix) IsZero() bool {
	for _, v := range m.a {
		if v != 0 {
			return false
		}
	}
	return true
}

// Submatrix returns the matrix consisting of the listed rows and columns
// of m, in the given order. Indices may repeat.
func (m *Matrix) Submatrix(rows, cols []int) *Matrix {
	s := New(len(rows), len(cols))
	for i, ri := range rows {
		for j, cj := range cols {
			s.Set(i, j, m.At(ri, cj))
		}
	}
	return s
}

// HStack returns [m | o], the horizontal concatenation.
func (m *Matrix) HStack(o *Matrix) *Matrix {
	if m.rows != o.rows {
		panic("intmat: HStack row mismatch")
	}
	r := New(m.rows, m.cols+o.cols)
	for i := 0; i < m.rows; i++ {
		copy(r.a[i*r.cols:], m.a[i*m.cols:(i+1)*m.cols])
		copy(r.a[i*r.cols+m.cols:], o.a[i*o.cols:(i+1)*o.cols])
	}
	return r
}

// VStack returns [m ; o], the vertical concatenation.
func (m *Matrix) VStack(o *Matrix) *Matrix {
	if m.cols != o.cols {
		panic("intmat: VStack column mismatch")
	}
	r := New(m.rows+o.rows, m.cols)
	copy(r.a, m.a)
	copy(r.a[m.rows*m.cols:], o.a)
	return r
}

// AppendRow returns m with v appended as a final row.
func (m *Matrix) AppendRow(v Vector) *Matrix {
	if m.cols != len(v) && !(m.rows == 0 && m.cols == 0) {
		panic(fmt.Sprintf("intmat: AppendRow length %d, want %d", len(v), m.cols))
	}
	if m.rows == 0 && m.cols == 0 {
		return FromRows(v)
	}
	r := New(m.rows+1, m.cols)
	copy(r.a, m.a)
	copy(r.a[m.rows*m.cols:], v)
	return r
}

// String formats the matrix over multiple lines with aligned columns.
func (m *Matrix) String() string {
	if m.rows == 0 || m.cols == 0 {
		return fmt.Sprintf("[%dx%d]", m.rows, m.cols)
	}
	width := make([]int, m.cols)
	cells := make([]string, len(m.a))
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s := fmt.Sprintf("%d", m.a[i*m.cols+j])
			cells[i*m.cols+j] = s
			if len(s) > width[j] {
				width[j] = len(s)
			}
		}
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%*s", width[j], cells[i*m.cols+j])
		}
		b.WriteString("]")
		if i != m.rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
