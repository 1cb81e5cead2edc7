package intmat

import "fmt"

// This file holds the package's one determinant and one adjugate: each
// draws its working storage from a caller's arena (see arena.go), or
// from the heap when the arena is nil, as Matrix.Det and
// Matrix.Adjugate do. All arithmetic is overflow-checked: a Bareiss
// elimination whose intermediates pass int64 is redone in arbitrary
// precision (detBig), and only a result past int64 panics with
// *OverflowError.

// minorInto writes m with row di and column dj removed into dst — the
// cofactor minor. dst must be (m.Rows()−1)×(m.Cols()−1).
func minorInto(dst, m *Matrix, di, dj int) *Matrix {
	r := 0
	for i := 0; i < m.rows; i++ {
		if i == di {
			continue
		}
		c := 0
		for j := 0; j < m.cols; j++ {
			if j == dj {
				continue
			}
			dst.a[r*dst.cols+c] = m.a[i*m.cols+j]
			c++
		}
		r++
	}
	return dst
}

// detDestructive computes the determinant of w by fraction-free Bareiss
// elimination, destroying w's contents. It panics with *OverflowError
// when an intermediate value overflows (the caller decides whether to
// fall back to arbitrary precision).
func (w *Matrix) detDestructive() int64 {
	n := w.rows
	if n != w.cols {
		panic(fmt.Sprintf("intmat: Det of non-square %dx%d matrix", w.rows, w.cols))
	}
	if n == 0 {
		return 1
	}
	sign := int64(1)
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if w.a[k*n+k] == 0 {
			p := -1
			for i := k + 1; i < n; i++ {
				if w.a[i*n+k] != 0 {
					p = i
					break
				}
			}
			if p < 0 {
				return 0
			}
			w.swapRows(k, p)
			sign = -sign
		}
		pkk := w.a[k*n+k]
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				num := subChecked(mulChecked(w.a[i*n+j], pkk), mulChecked(w.a[i*n+k], w.a[k*n+j]))
				w.a[i*n+j] = num / prev
			}
			w.a[i*n+k] = 0
		}
		prev = pkk
	}
	return mulChecked(sign, w.a[(n-1)*n+(n-1)])
}

// DetIn computes det(m) using arena-backed scratch for the elimination
// working copy (heap scratch when ar is nil). It transparently falls
// back to arbitrary precision when the int64 Bareiss intermediates
// overflow, and panics with *OverflowError only if the determinant
// itself does not fit.
func DetIn(ar *Arena, m *Matrix) int64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("intmat: Det of non-square %dx%d matrix", m.rows, m.cols))
	}
	var w *Matrix
	if ar != nil {
		w = ar.Mat(m.rows, m.cols)
	} else {
		w = New(m.rows, m.cols)
	}
	copy(w.a, m.a)
	if d, ok := detDestructiveTry(w); ok {
		return d
	}
	return m.detBig()
}

// detDestructiveTry runs detDestructive, reporting ok = false on int64
// overflow instead of panicking.
func detDestructiveTry(w *Matrix) (d int64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isOverflow := r.(*OverflowError); isOverflow {
				ok = false
				return
			}
			panic(r)
		}
	}()
	return w.detDestructive(), true
}

// AdjugateInto computes the adjugate of the square matrix m into dst
// and returns dst, using arena-backed scratch for the cofactor minors
// (heap scratch when ar is nil). dst must be the same shape as m and
// must not alias it.
func AdjugateInto(dst *Matrix, ar *Arena, m *Matrix) *Matrix {
	if m.rows != m.cols {
		panic("intmat: Adjugate of non-square matrix")
	}
	n := m.rows
	if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("intmat: AdjugateInto into %dx%d matrix, want %dx%d", dst.rows, dst.cols, n, n))
	}
	if n == 0 {
		return dst
	}
	var minor *Matrix
	if ar != nil {
		minor = ar.Mat(n-1, n-1)
	} else {
		minor = New(n-1, n-1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			minorInto(minor, m, i, j)
			d, ok := detDestructiveTry(minor)
			if !ok {
				// Intermediates overflowed: recompute this minor in
				// arbitrary precision (the minor was destroyed, refill it).
				d = minorInto(minor, m, i, j).detBig()
			}
			if (i+j)%2 != 0 {
				d = negChecked(d)
			}
			dst.a[j*n+i] = d
		}
	}
	return dst
}
