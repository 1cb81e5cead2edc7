package intmat

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// The int64 fast paths of HermiteNormalForm and SmithNormalForm claim to be
// operation-for-operation mirrors of the arbitrary-precision reference
// eliminations, which makes their outputs byte-equal whenever no
// intermediate overflows. These differential tests pin that claim
// against the big-path oracles across randomized inputs, and pin the
// scalar helpers the mirror argument rests on.

// TestExtGCDMatchesBigExtGCD: the minimality normalization of the two
// extended-gcd implementations must tie-break identically, or the fast
// HNF would diverge from the big path while both remain "correct".
func TestExtGCDMatchesBigExtGCD(t *testing.T) {
	for a := int64(-120); a <= 120; a++ {
		for b := int64(-120); b <= 120; b++ {
			if a == 0 && b == 0 {
				continue
			}
			g, x, y := ExtGCD(a, b)
			bg, bx, by := bigExtGCD(big.NewInt(a), big.NewInt(b))
			if g != bg.Int64() || x != bx.Int64() || y != by.Int64() {
				t.Fatalf("ExtGCD(%d,%d) = (%d,%d,%d), bigExtGCD = (%v,%v,%v)",
					a, b, g, x, y, bg, bx, by)
			}
		}
	}
}

// TestRoundDivMatchesBigRoundDiv: sizeReduce's Babai rounding must
// agree between paths for positive divisors (column self-dots).
func TestRoundDivMatchesBigRoundDiv(t *testing.T) {
	for a := int64(-200); a <= 200; a++ {
		for d := int64(1); d <= 40; d++ {
			got := roundDiv(a, d)
			want := bigRoundDiv(big.NewInt(a), big.NewInt(d)).Int64()
			if got != want {
				t.Fatalf("roundDiv(%d,%d) = %d, bigRoundDiv = %d", a, d, got, want)
			}
			gotF := floorDiv(a, d)
			wantF := bigFloorDiv(big.NewInt(a), big.NewInt(d)).Int64()
			if gotF != wantF {
				t.Fatalf("floorDiv(%d,%d) = %d, bigFloorDiv = %d", a, d, gotF, wantF)
			}
		}
	}
}

// randomMatrix draws a k×n matrix with entries in [-bound, bound].
func randomMatrix(rng *rand.Rand, k, n int, bound int64) *Matrix {
	m := New(k, n)
	for i := range m.a {
		m.a[i] = rng.Int63n(2*bound+1) - bound
	}
	return m
}

func TestHNFMatchesBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	check := func(m *Matrix, bound int64) {
		want, wantErr := hermiteNormalFormBig(m)
		// Verify() re-multiplies T·U, which itself overflows int64 on the
		// huge-entry trials; the byte-comparison against the oracle still
		// holds there.
		verify := bound <= 60
		got, gotErr := HermiteNormalForm(m)
		checkHNFMatch(t, m, want, wantErr, got, gotErr, verify, "HermiteNormalForm")
	}
	for trial := 0; trial < 4000; trial++ {
		k := 1 + rng.Intn(3)
		n := k + rng.Intn(4)
		bound := int64(9)
		switch trial % 3 {
		case 1:
			bound = 60
		case 2:
			bound = 1 << 40 // forces intermediate overflow → fallback path
		}
		check(randomMatrix(rng, k, n, bound), bound)
	}
	// Rounding ties in the size reduction: the tie matrices, then
	// entries in [−1, 1], where ties are common.
	for _, m := range tieMatrices {
		check(m, 1)
	}
	for trial := 0; trial < 1000; trial++ {
		k := 1 + rng.Intn(3)
		check(randomMatrix(rng, k, k+rng.Intn(4), 1), 1)
	}
}

func checkHNFMatch(t *testing.T, m *Matrix, want *HNF, wantErr error, got *HNF, gotErr error, verify bool, label string) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s error mismatch: big=%v fast=%v for\n%v", label, wantErr, gotErr, m)
	}
	if wantErr != nil {
		if errors.Is(wantErr, ErrRankDeficient) != errors.Is(gotErr, ErrRankDeficient) {
			t.Fatalf("%s error class mismatch: big=%v fast=%v for\n%v", label, wantErr, gotErr, m)
		}
		return
	}
	if !got.H.Equal(want.H) || !got.U.Equal(want.U) {
		t.Fatalf("%s diverged from big oracle for\n%v\nH fast=\n%v\nH big=\n%v\nU fast=\n%v\nU big=\n%v",
			label, m, got.H, want.H, got.U, want.U)
	}
	if verify {
		if err, ok := verifyNoOverflow(got.Verify); ok && err != nil {
			t.Fatalf("%s invariants: %v for\n%v", label, err, m)
		}
	}
}

// verifyNoOverflow runs a Verify method, reporting ok=false when the
// re-multiplication inside it overflows int64 (legitimate for valid
// decompositions whose multiplier entries approach 2^63 — the byte
// comparison against the oracle still covers those).
func verifyNoOverflow(f func() error) (err error, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isOverflow := r.(*OverflowError); isOverflow {
				ok = false
				return
			}
			panic(r)
		}
	}()
	return f(), true
}

func TestSmithMatchesBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(3)
		n := 1 + rng.Intn(4)
		bound := int64(9)
		switch trial % 3 {
		case 1:
			bound = 60
		case 2:
			bound = 1 << 40
		}
		m := randomMatrix(rng, k, n, bound)
		want, wantErr := smithNormalFormBig(m)
		verify := bound <= 60

		got, gotErr := SmithNormalForm(m)
		checkSNFMatch(t, m, want, wantErr, got, gotErr, verify, "SmithNormalForm")
	}
}

func checkSNFMatch(t *testing.T, m *Matrix, want *SNF, wantErr error, got *SNF, gotErr error, verify bool, label string) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s error mismatch: big=%v fast=%v for\n%v", label, wantErr, gotErr, m)
	}
	if wantErr != nil {
		return
	}
	if !got.P.Equal(want.P) || !got.D.Equal(want.D) || !got.Q.Equal(want.Q) {
		t.Fatalf("%s diverged from big oracle for\n%v\nD fast=\n%v\nD big=\n%v", label, m, got.D, want.D)
	}
	if verify {
		if err, ok := verifyNoOverflow(got.Verify); ok && err != nil {
			t.Fatalf("%s invariants: %v for\n%v", label, err, m)
		}
	}
}

// TestRowNullBasisAppendMatches: the arena/append form returns the same
// basis as the allocating wrapper, including through the overflow
// fallback.
func TestRowNullBasisAppendMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ar := GetArena()
	defer PutArena(ar)
	scratch := make([]Vector, 0, 8)
	for trial := 0; trial < 4000; trial++ {
		q := 2 + rng.Intn(4)
		bound := int64(9)
		switch trial % 3 {
		case 1:
			bound = 1000
		case 2:
			bound = 1 << 40
		}
		h := make(Vector, q)
		for i := range h {
			h[i] = rng.Int63n(2*bound+1) - bound
		}
		want, wantErr := RowNullBasis(h)
		ar.Reset()
		got, gotErr := RowNullBasisAppend(scratch[:0], ar, h)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch for h=%v: %v vs %v", h, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("basis size mismatch for h=%v: %d vs %d", h, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("basis[%d] mismatch for h=%v: %v vs %v", i, h, got[i], want[i])
			}
		}
	}
}

// TestInplaceMatchesAllocating: the Bareiss determinant and the
// adjugate, on arena and on heap scratch, equal the arbitrary-precision
// determinant and the cofactors computed from it. Every fourth matrix
// has entries as large as its determinant allows (Hadamard's bound
// stays under 2^62): at n = 3 and 4 its Bareiss intermediates can pass
// int64, so the arbitrary-precision fallback runs too (asserted).
func TestInplaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ar := GetArena()
	defer PutArena(ar)
	wide := [...]int64{1: 1 << 40, 2: 1 << 30, 3: 1 << 18, 4: 1 << 12}
	fallbacks := 0
	for trial := 0; trial < 2000; trial++ {
		ar.Reset()
		n := 1 + rng.Intn(4)
		bound := int64(12)
		if trial%4 == 3 {
			bound = wide[n]
		}
		sq := randomMatrix(rng, n, n, bound)
		if _, ok := detDestructiveTry(sq.Clone()); !ok {
			fallbacks++
		}
		want := sq.detBig()
		if got := DetIn(ar, sq); got != want {
			t.Fatalf("DetIn = %d, detBig = %d for\n%v", got, want, sq)
		}
		if got := sq.Det(); got != want {
			t.Fatalf("Det = %d, detBig = %d for\n%v", got, want, sq)
		}
		cof := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := minorInto(New(n-1, n-1), sq, i, j).detBig()
				if (i+j)%2 != 0 {
					d = -d
				}
				cof.Set(j, i, d)
			}
		}
		if got := AdjugateInto(ar.Mat(n, n), ar, sq); !got.Equal(cof) {
			t.Fatalf("AdjugateInto =\n%v\nwant\n%v\nfor\n%v", got, cof, sq)
		}
		if got := sq.Adjugate(); !got.Equal(cof) {
			t.Fatalf("Adjugate =\n%v\nwant\n%v\nfor\n%v", got, cof, sq)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no determinant took the arbitrary-precision fallback")
	}
}

// tieMatrices are inputs whose multiplier U has null columns at a
// rounding tie, 2|⟨q,p⟩| = ⟨p,p⟩ (hexagonal pairs such as (−1,1,0,0)
// and (−1,0,1,0)), or pivot columns at a tie with a null column. A size
// reducer that steps at ties trades such columns back and forth until
// its sweep cap.
var tieMatrices = []*Matrix{
	FromRows([]int64{-1, -1, -1, -1}, []int64{-1, -1, -1, 0}),
	FromRows([]int64{1, 1, 1, 0}),
	FromRows([]int64{1, 1, 1, 1}),
	FromRows([]int64{1, 1, 1}),
	FromRows([]int64{1, 1, 1, 1, 1}),
	FromRows([]int64{1, 1, 1, 1, 1}, []int64{0, 0, 0, 1, -1}),
	FromRows([]int64{1, -1, 1, -1}, []int64{1, 1, 0, 0}),
}

// TestSizeReduceFixpoint: the size reduction of both paths ends at a
// fixpoint, so reducing the HNF multiplier again changes nothing. A
// reducer that steps at rounding ties cycles instead and stops at its
// sweep cap wherever the cycle happens to stand. Inputs are the tie
// cases plus random matrices with entries in [−1, 1] (ties are common
// there) and in [−9, 9].
func TestSizeReduceFixpoint(t *testing.T) {
	inputs := append([]*Matrix(nil), tieMatrices...)
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(3)
		bound := int64(1)
		if trial%2 == 1 {
			bound = 9
		}
		inputs = append(inputs, randomMatrix(rng, k, k+1+rng.Intn(4), bound))
	}
	for _, m := range inputs {
		h, err := HermiteNormalForm(m)
		if err != nil {
			continue // rank deficient
		}
		k := m.Rows()
		again := h.U.Clone()
		again.sizeReduce(k)
		if !again.Equal(h.U) {
			t.Fatalf("sizeReduce is not at a fixpoint on the HNF of\n%v\nU=\n%v\nreduced again=\n%v", m, h.U, again)
		}
		b := newBigMatrix(h.U)
		b.sizeReduce(k)
		if !b.toMatrix().Equal(h.U) {
			t.Fatalf("bigMatrix.sizeReduce is not at a fixpoint on the HNF of\n%v\nU=\n%v\nreduced again=\n%v", m, h.U, b.toMatrix())
		}
	}
}
