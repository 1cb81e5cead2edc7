package intmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDetSmall(t *testing.T) {
	cases := []struct {
		m    *Matrix
		want int64
	}{
		{New(0, 0), 1},
		{FromRows([]int64{7}), 7},
		{FromRows([]int64{1, 2}, []int64{3, 4}), -2},
		{Identity(5), 1},
		{FromRows([]int64{2, 0, 0}, []int64{0, 3, 0}, []int64{0, 0, 4}), 24},
		{FromRows([]int64{0, 1}, []int64{1, 0}), -1},
		{FromRows([]int64{1, 2, 3}, []int64{4, 5, 6}, []int64{7, 8, 9}), 0},
		// Needs a row swap because of the zero pivot.
		{FromRows([]int64{0, 2, 1}, []int64{1, 0, 0}, []int64{0, 0, 3}), -6},
	}
	for i, c := range cases {
		if got := c.m.Det(); got != c.want {
			t.Errorf("case %d: Det = %d, want %d", i, got, c.want)
		}
	}
}

func TestDetNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Det of non-square matrix did not panic")
		}
	}()
	New(2, 3).Det()
}

// Property: det is multiplicative for random small square matrices.
func TestDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		a, b := randMatrix(rng, n, n, 5), randMatrix(rng, n, n, 5)
		if got, want := a.Mul(b).Det(), a.Det()*b.Det(); got != want {
			t.Fatalf("det(AB) = %d, det(A)det(B) = %d\nA=\n%v\nB=\n%v", got, want, a, b)
		}
	}
}

// Property: det(mᵀ) = det(m).
func TestDetTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		m := randMatrix(rng, n, n, 6)
		if m.Det() != m.Transpose().Det() {
			t.Fatalf("det(m) != det(mᵀ) for\n%v", m)
		}
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		m    *Matrix
		want int
	}{
		{New(3, 3), 0},
		{Identity(4), 4},
		{FromRows([]int64{1, 2, 3}, []int64{2, 4, 6}), 1},
		{FromRows([]int64{1, 2, 3}, []int64{4, 5, 6}, []int64{7, 8, 9}), 2},
		{FromRows([]int64{1, 0, 0, 0}, []int64{0, 0, 1, 0}), 2},
		{New(0, 5), 0},
		{FromRows([]int64{0, 0}, []int64{0, 1}), 1},
	}
	for i, c := range cases {
		if got := c.m.Rank(); got != c.want {
			t.Errorf("case %d: Rank = %d, want %d", i, got, c.want)
		}
	}
}

func TestRankTransposeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(4), 1+rng.Intn(5)
		m := randMatrix(rng, r, c, 4)
		if m.Rank() != m.Transpose().Rank() {
			t.Fatalf("rank(m) != rank(mᵀ) for\n%v", m)
		}
	}
}

func TestCofactorAndAdjugate(t *testing.T) {
	m := FromRows(
		[]int64{1, 2, 3},
		[]int64{0, 4, 5},
		[]int64{1, 0, 6},
	)
	// Fundamental identity: m · adj(m) = det(m) · I.
	adj := m.Adjugate()
	want := Identity(3).Scale(m.Det())
	if got := m.Mul(adj); !got.Equal(want) {
		t.Errorf("m·adj(m) =\n%v\nwant\n%v", got, want)
	}
	if got := adj.Mul(m); !got.Equal(want) {
		t.Errorf("adj(m)·m =\n%v\nwant\n%v", got, want)
	}
	// Spot-check cofactors by hand, read off adj(m)[j][i] = C(i,j):
	// C(0,0) = det([[4,5],[0,6]]) = 24.
	if got := adj.At(0, 0); got != 24 {
		t.Errorf("C(0,0) = adj[0][0] = %d, want 24", got)
	}
	// C(0,1) = -det([[0,5],[1,6]]) = 5.
	if got := adj.At(1, 0); got != 5 {
		t.Errorf("C(0,1) = adj[1][0] = %d, want 5", got)
	}
}

// Property: m·adj(m) = det(m)·I for random matrices, including singular ones.
func TestAdjugateIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		m := randMatrix(rng, n, n, 5)
		want := Identity(n).Scale(m.Det())
		if !m.Mul(m.Adjugate()).Equal(want) {
			t.Fatalf("m·adj(m) != det(m)I for\n%v", m)
		}
	}
}

func TestIsUnimodular(t *testing.T) {
	if !Identity(4).IsUnimodular() {
		t.Error("identity not unimodular")
	}
	u := FromRows([]int64{1, 1}, []int64{0, -1}) // det -1
	if !u.IsUnimodular() {
		t.Error("det -1 matrix not reported unimodular")
	}
	if FromRows([]int64{2, 0}, []int64{0, 1}).IsUnimodular() {
		t.Error("det 2 matrix reported unimodular")
	}
	if New(2, 3).IsUnimodular() {
		t.Error("non-square matrix reported unimodular")
	}
}

func TestInverseUnimodular(t *testing.T) {
	u := FromRows(
		[]int64{1, -1, -1, -7},
		[]int64{0, 0, 0, 1},
		[]int64{0, 0, 1, 0},
		[]int64{0, 1, 0, 0},
	)
	v := u.InverseUnimodular()
	if !u.Mul(v).Equal(Identity(4)) || !v.Mul(u).Equal(Identity(4)) {
		t.Errorf("U·V != I:\nU=\n%v\nV=\n%v", u, v)
	}
}

func TestInverseUnimodularRejectsNonUnimodular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InverseUnimodular of det-2 matrix did not panic")
		}
	}()
	FromRows([]int64{2, 0}, []int64{0, 1}).InverseUnimodular()
}

// Property (testing/quick): for arbitrary 3x3 integer matrices with small
// entries, adj identity and det-transpose invariance hold.
func TestDecompQuickProperties(t *testing.T) {
	type m33 struct{ A, B, C, D, E, F, G, H, I int8 }
	f := func(x m33) bool {
		m := FromRows(
			[]int64{int64(x.A), int64(x.B), int64(x.C)},
			[]int64{int64(x.D), int64(x.E), int64(x.F)},
			[]int64{int64(x.G), int64(x.H), int64(x.I)},
		)
		d := m.Det()
		if d != m.Transpose().Det() {
			return false
		}
		return m.Mul(m.Adjugate()).Equal(Identity(3).Scale(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randMatrix returns an r×c matrix with entries uniform in [-amp, amp].
func randMatrix(rng *rand.Rand, r, c int, amp int64) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.Int63n(2*amp+1)-amp)
		}
	}
	return m
}
