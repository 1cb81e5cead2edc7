package intmat

import "testing"

// FuzzHNFInvariants: arbitrary 2×4 matrices either fail with
// ErrRankDeficient or produce a decomposition satisfying every
// structural invariant.
func FuzzHNFInvariants(f *testing.F) {
	f.Add(int8(1), int8(7), int8(1), int8(1), int8(1), int8(7), int8(1), int8(0))
	f.Add(int8(1), int8(0), int8(0), int8(0), int8(0), int8(1), int8(0), int8(0))
	f.Add(int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i int8) {
		T := FromRows(
			[]int64{int64(a), int64(b), int64(c), int64(d)},
			[]int64{int64(e), int64(g), int64(h), int64(i)},
		)
		hn, err := HermiteNormalForm(T)
		if err != nil {
			if T.Rank() == 2 {
				t.Fatalf("full-rank matrix rejected: %v\n%v", err, T)
			}
			return
		}
		if T.Rank() != 2 {
			t.Fatalf("rank-deficient matrix accepted:\n%v", T)
		}
		if err := hn.Verify(); err != nil {
			t.Fatalf("invariants: %v\nT=\n%v", err, T)
		}
		for _, u := range hn.NullBasis() {
			if !T.MulVec(u).IsZero() {
				t.Fatalf("null basis %v not annihilated", u)
			}
			if u.GCD() != 1 {
				t.Fatalf("null basis %v not primitive", u)
			}
		}
	})
}

// FuzzRowNullBasis: the fast single-row reduction agrees with the
// definitional property h·b = 0 and primitivity, for arbitrary rows.
func FuzzRowNullBasis(f *testing.F) {
	f.Add(int16(1), int16(9), int16(3), int16(0))
	f.Add(int16(0), int16(0), int16(0), int16(0))
	f.Add(int16(-6), int16(10), int16(15), int16(1))
	f.Fuzz(func(t *testing.T, a, b, c, d int16) {
		h := Vec(int64(a), int64(b), int64(c), int64(d))
		basis, err := RowNullBasis(h)
		ar := GetArena()
		defer PutArena(ar)
		arenaBasis, arenaErr := RowNullBasisAppend(nil, ar, h)
		if err != nil {
			if !h.IsZero() {
				t.Fatalf("non-zero row rejected: %v", err)
			}
			if arenaErr == nil {
				t.Fatalf("arena path accepted the zero row")
			}
			return
		}
		if len(basis) != 3 {
			t.Fatalf("basis size %d", len(basis))
		}
		// The arena-backed append form must return the same basis.
		if arenaErr != nil || len(arenaBasis) != len(basis) {
			t.Fatalf("RowNullBasisAppend diverged (err=%v, %d vectors) for h=%v", arenaErr, len(arenaBasis), h)
		}
		for i, v := range basis {
			if !arenaBasis[i].Equal(v) {
				t.Fatalf("arena basis[%d] = %v, want %v for h=%v", i, arenaBasis[i], v, h)
			}
		}
		for _, v := range basis {
			if h.Dot(v) != 0 {
				t.Fatalf("h·%v != 0 for h=%v", v, h)
			}
			if v.GCD() != 1 {
				t.Fatalf("basis %v not primitive", v)
			}
		}
	})
}
