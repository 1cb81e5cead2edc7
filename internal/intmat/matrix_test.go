package intmat

import (
	"strings"
	"testing"
)

func TestNewAndAtSet(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 42)
	if got := m.At(1, 2); got != 42 {
		t.Errorf("At(1,2) = %d, want 42", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %d, want 0", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows(
		[]int64{1, 2},
		[]int64{3, 4},
		[]int64{5, 6},
	)
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Errorf("entries wrong: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([]int64{1, 2}, []int64{3})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if got := id.At(i, j); got != want {
				t.Errorf("I[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([]int64{1, 2}, []int64{3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowColAccessors(t *testing.T) {
	m := FromRows([]int64{1, 2, 3}, []int64{4, 5, 6})
	if !m.Row(1).Equal(Vec(4, 5, 6)) {
		t.Errorf("Row(1) = %v", m.Row(1))
	}
	if !m.Col(2).Equal(Vec(3, 6)) {
		t.Errorf("Col(2) = %v", m.Col(2))
	}
	m.SetRow(0, Vec(7, 8, 9))
	if !m.Row(0).Equal(Vec(7, 8, 9)) {
		t.Errorf("after SetRow, Row(0) = %v", m.Row(0))
	}
	m.SetCol(1, Vec(10, 11))
	if !m.Col(1).Equal(Vec(10, 11)) {
		t.Errorf("after SetCol, Col(1) = %v", m.Col(1))
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([]int64{1, 2, 3}, []int64{4, 5, 6})
	mt := m.Transpose()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows(), mt.Cols())
	}
	if !mt.Transpose().Equal(m) {
		t.Error("double transpose differs from original")
	}
	if mt.At(2, 1) != 6 {
		t.Errorf("transpose entry wrong: %v", mt)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([]int64{1, 2}, []int64{3, 4})
	b := FromRows([]int64{5, 6}, []int64{7, 8})
	want := FromRows([]int64{19, 22}, []int64{43, 50})
	if got := a.Mul(b); !got.Equal(want) {
		t.Errorf("Mul =\n%v\nwant\n%v", got, want)
	}
	id := Identity(2)
	if !a.Mul(id).Equal(a) || !id.Mul(a).Equal(a) {
		t.Error("identity multiplication altered the matrix")
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	m := FromRows([]int64{1, 2, 3}, []int64{4, 5, 6})
	if got := m.MulVec(Vec(1, 0, -1)); !got.Equal(Vec(-2, -2)) {
		t.Errorf("MulVec = %v", got)
	}
	if got := m.VecMul(Vec(1, -1)); !got.Equal(Vec(-3, -3, -3)) {
		t.Errorf("VecMul = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([]int64{1, 2}, []int64{3, 4})
	b := FromRows([]int64{10, 20}, []int64{30, 40})
	if got := a.Add(b); !got.Equal(FromRows([]int64{11, 22}, []int64{33, 44})) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(FromRows([]int64{9, 18}, []int64{27, 36})) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(-1); !got.Equal(a.Neg()) {
		t.Errorf("Scale(-1) != Neg: %v", got)
	}
}

func TestSubmatrixAndMinor(t *testing.T) {
	m := FromRows(
		[]int64{1, 2, 3},
		[]int64{4, 5, 6},
		[]int64{7, 8, 9},
	)
	s := m.Submatrix([]int{0, 2}, []int{1, 2})
	if !s.Equal(FromRows([]int64{2, 3}, []int64{8, 9})) {
		t.Errorf("Submatrix = %v", s)
	}
	d := minorInto(New(2, 2), m, 1, 1)
	if !d.Equal(FromRows([]int64{1, 3}, []int64{7, 9})) {
		t.Errorf("minorInto = %v", d)
	}
}

func TestStacking(t *testing.T) {
	a := FromRows([]int64{1, 2})
	b := FromRows([]int64{3, 4})
	h := a.HStack(b)
	if !h.Equal(FromRows([]int64{1, 2, 3, 4})) {
		t.Errorf("HStack = %v", h)
	}
	v := a.VStack(b)
	if !v.Equal(FromRows([]int64{1, 2}, []int64{3, 4})) {
		t.Errorf("VStack = %v", v)
	}
	ar := a.AppendRow(Vec(9, 9))
	if !ar.Equal(FromRows([]int64{1, 2}, []int64{9, 9})) {
		t.Errorf("AppendRow = %v", ar)
	}
}

func TestIsZero(t *testing.T) {
	if !New(2, 2).IsZero() {
		t.Error("zero matrix reported non-zero")
	}
	m := New(2, 2)
	m.Set(1, 1, 1)
	if m.IsZero() {
		t.Error("non-zero matrix reported zero")
	}
}

func TestMatrixString(t *testing.T) {
	m := FromRows([]int64{1, -20}, []int64{300, 4})
	s := m.String()
	if !strings.Contains(s, "300") || !strings.Contains(s, "-20") {
		t.Errorf("String output missing entries: %q", s)
	}
	if lines := strings.Split(s, "\n"); len(lines) != 2 {
		t.Errorf("String produced %d lines, want 2", len(lines))
	}
}
