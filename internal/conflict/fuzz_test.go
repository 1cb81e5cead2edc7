package conflict

import (
	"errors"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// FuzzDecideVsBruteForce feeds arbitrary 2×4 mapping matrices and box
// bounds to the full decision ladder and cross-checks the definitional
// ground truth. Run with `go test -fuzz FuzzDecideVsBruteForce` for a
// campaign; the seed corpus runs on every `go test`.
func FuzzDecideVsBruteForce(f *testing.F) {
	f.Add(int8(1), int8(7), int8(1), int8(1), int8(1), int8(7), int8(1), int8(0), uint8(2))
	f.Add(int8(1), int8(0), int8(-10), int8(2), int8(0), int8(1), int8(2), int8(-10), uint8(3))
	f.Add(int8(1), int8(1), int8(-1), int8(0), int8(1), int8(4), int8(1), int8(0), uint8(2))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i int8, muRaw uint8) {
		// Clamp entries: huge coefficients make the enumeration bounds
		// astronomically loose without exercising anything new.
		clamp := func(x int8) int64 { return int64(x % 10) }
		T := intmat.FromRows(
			[]int64{clamp(a), clamp(b), clamp(c), clamp(d)},
			[]int64{clamp(e), clamp(g), clamp(h), clamp(i)},
		)
		if T.Rank() != 2 {
			return
		}
		mu := int64(muRaw%3) + 1
		set := uda.Cube(4, mu)
		res, err := Decide(T, set)
		if errors.Is(err, ErrBudget) {
			return // resource bound, not a correctness property
		}
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		free, witness := BruteForce(T, set)
		if res.ConflictFree != free {
			t.Fatalf("Decide=%v (%s) but brute force=%v for\n%v μ=%d (bf witness %v)",
				res.ConflictFree, res.Method, free, T, mu, witness)
		}
		if !res.ConflictFree && res.Witness != nil {
			if !T.MulVec(res.Witness).IsZero() {
				t.Fatalf("witness %v not in null space", res.Witness)
			}
			if Feasible(set, res.Witness) {
				t.Fatalf("witness %v is feasible", res.Witness)
			}
		}
	})
}

// FuzzFactoredVsFull cross-checks the factored SpaceAnalyzer against
// the brute force on arbitrary 1×3 space mappings and schedules.
func FuzzFactoredVsFull(f *testing.F) {
	f.Add(int8(1), int8(1), int8(-1), int8(1), int8(4), int8(1), uint8(4))
	f.Add(int8(0), int8(0), int8(1), int8(5), int8(1), int8(1), uint8(4))
	f.Fuzz(func(t *testing.T, s1, s2, s3, p1, p2, p3 int8, muRaw uint8) {
		S := intmat.FromRows([]int64{int64(s1), int64(s2), int64(s3)})
		if S.Rank() != 1 {
			return
		}
		mu := int64(muRaw%4) + 1
		set := uda.Cube(3, mu)
		sa, err := NewSpaceAnalyzer(S, set)
		if err != nil {
			t.Fatalf("NewSpaceAnalyzer: %v", err)
		}
		pi := intmat.Vec(int64(p1), int64(p2), int64(p3))
		T := S.AppendRow(pi)
		if T.Rank() != 2 {
			return
		}
		fast, err := sa.Decide(pi)
		if err != nil {
			t.Fatalf("factored: %v", err)
		}
		if free, bf := BruteForce(T, set); fast.ConflictFree != free {
			t.Fatalf("factored=%v brute force=%v (witness %v) for S=%v Π=%v μ=%d",
				fast.ConflictFree, free, bf, S.Row(0), pi, mu)
		}
	})
}

// FuzzDecideScratchVsBruteForce drives one scratch through 40
// decisions against a space mapping (1 or 2 rows, n ≤ 5, μ_i ≤ 4) and
// checks every verdict against the brute force, and that the scratch
// holds a conflict-vector table exactly when null(S) has dimension
// tableMinDim or more (μ_i ≤ 4 keeps every box under the cap). A conflict's witness γ must satisfy Sγ = 0 and
// Πγ = 0 and lie in the box. The seed picks S and the Π sequence; the
// seed corpus runs on every `go test`.
func FuzzDecideScratchVsBruteForce(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(3), uint8(3), uint8(3), uint8(3), uint8(3))
	f.Add(int64(2), uint8(3), uint8(1), uint8(1), uint8(2), uint8(0), uint8(3), uint8(1))
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), uint8(1), uint8(2), uint8(3), uint8(0))
	f.Add(int64(4), uint8(3), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(5), uint8(2), uint8(1), uint8(2), uint8(0), uint8(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, rowsRaw, m0, m1, m2, m3, m4 uint8) {
		n := 2 + int(nRaw%4)
		rows := 1 + int(rowsRaw%2)
		if rows >= n {
			return
		}
		mu := intmat.Vec(int64(m0%4)+1, int64(m1%4)+1, int64(m2%4)+1, int64(m3%4)+1, int64(m4%4)+1)[:n]
		set := uda.IndexSet{Upper: mu}
		rng := rand.New(rand.NewSource(seed))
		entry := func() int64 { return rng.Int63n(7) - 3 }
		S := intmat.New(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				S.Set(i, j, entry())
			}
		}
		if S.Rank() != rows {
			return
		}
		sa, err := NewSpaceAnalyzer(S, set)
		if err != nil {
			t.Fatalf("NewSpaceAnalyzer: %v", err)
		}
		sc := GetScratch()
		defer PutScratch(sc)
		for d := 0; d < 40; d++ {
			pi := make(intmat.Vector, n)
			for j := range pi {
				pi[j] = entry()
			}
			T := S.AppendRow(pi)
			res, err := sa.DecideMemo(sc, &sc.Memo, pi)
			if T.Rank() != rows+1 {
				if !errors.Is(err, ErrRank) {
					t.Fatalf("S=%v Π=%v: rank-deficient T answered %v, %v", S, pi, res, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("S=%v Π=%v: %v", S, pi, err)
			}
			free, bf := BruteForce(T, set)
			if res.ConflictFree != free {
				t.Fatalf("S=%v Π=%v μ=%v: DecideMemo %v, brute force conflict-free=%v (witness %v)", S, pi, mu, res, free, bf)
			}
			if g := res.Witness; !res.ConflictFree && g != nil {
				if g.IsZero() || !T.MulVec(g).IsZero() || Feasible(set, g) {
					t.Fatalf("S=%v Π=%v μ=%v: witness %v (%s) is not an in-box null vector of T", S, pi, mu, g, res.Method)
				}
			}
		}
		if want := n-rows >= tableMinDim; sc.tabOK != want {
			t.Fatalf("S=%v μ=%v: conflict-vector table built=%v, want %v", S, mu, sc.tabOK, want)
		}
	})
}

// int16s encodes entries for FuzzDeepNullSpaceVsBruteForce, two bytes
// each, little-endian.
func int16s(v ...int16) []byte {
	b := make([]byte, 0, 2*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(uint16(x)>>8))
	}
	return b
}

// decodeInt16s reads the first n entries int16s encoded, or reports
// false when b holds fewer.
func decodeInt16s(b []byte, n int) (intmat.Vector, bool) {
	if len(b) < 2*n {
		return nil, false
	}
	v := make(intmat.Vector, n)
	for i := range v {
		v[i] = int64(int16(uint16(b[2*i]) | uint16(b[2*i+1])<<8))
	}
	return v, true
}

// guarded is decide() with an *intmat.OverflowError panic returned as
// its error, as the engines' callers see it (intmat.Guard).
func guarded(decide func() (Result, error)) (res Result, err error) {
	defer intmat.Guard(&err)
	return decide()
}

// FuzzDeepNullSpaceVsBruteForce checks the decisions on null spaces of
// dimension up to 5: S has one or two rows (s2 empty for one), n =
// len(muRaw) is 6 or 7, and μ_i = 1 + muRaw[i] mod 3. Decide,
// SpaceAnalyzer.Decide and DecideMemo must each agree with the
// brute force, and a conflict's witness must be an in-box null vector
// of T. The seeds are two mappings whose exact step once passed its
// point budget: S = (1 3 9 27 81 243 729) with μ = 2 and Π = (1, …, 1),
// and S = (1 2 4 8 16 32) with μ = 3 and Π = (1 2 1 1 1 1).
func FuzzDeepNullSpaceVsBruteForce(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, int16s(1, 3, 9, 27, 81, 243, 729), int16s(), int16s(1, 1, 1, 1, 1, 1, 1))
	f.Add([]byte{2, 2, 2, 2, 2, 2}, int16s(1, 2, 4, 8, 16, 32), int16s(), int16s(1, 2, 1, 1, 1, 1))
	f.Add([]byte{0, 1, 2, 0, 1, 2}, int16s(1, -1, 0, 2, 0, 1), int16s(0, 1, 1, 0, -1, 0), int16s(3, 1, 2, 1, 1, 2))
	f.Fuzz(func(t *testing.T, muRaw, s1, s2, piRaw []byte) {
		n := len(muRaw)
		if n < 6 || n > 7 {
			return
		}
		mu := make(intmat.Vector, n)
		for i, m := range muRaw {
			mu[i] = 1 + int64(m%3)
		}
		set := uda.IndexSet{Upper: mu}
		var rows [][]int64
		for _, raw := range [][]byte{s1, s2} {
			if len(raw) == 0 {
				continue
			}
			row, ok := decodeInt16s(raw, n)
			if !ok {
				return
			}
			rows = append(rows, row)
		}
		pi, ok := decodeInt16s(piRaw, n)
		if len(rows) == 0 || !ok {
			return
		}
		S := intmat.FromRows(rows...)
		T := S.AppendRow(pi)
		if S.Rank() != S.Rows() || T.Rank() != T.Rows() {
			return
		}
		free, bf := BruteForce(T, set)
		sa, err := NewSpaceAnalyzer(S, set)
		if err != nil {
			t.Fatalf("NewSpaceAnalyzer: %v", err)
		}
		sc := GetScratch()
		defer PutScratch(sc)
		deciders := []struct {
			name   string
			decide func() (Result, error)
		}{
			{"Decide", func() (Result, error) { return Decide(T, set) }},
			{"SpaceAnalyzer.Decide", func() (Result, error) { return sa.Decide(pi) }},
			{"DecideMemo", func() (Result, error) { return sa.DecideMemo(sc, &sc.Memo, pi) }},
		}
		for _, d := range deciders {
			res, err := guarded(d.decide)
			var oe *intmat.OverflowError
			if errors.As(err, &oe) {
				continue // entries past int64, not a decision property
			}
			if err != nil {
				t.Fatalf("%s(S=%v Π=%v μ=%v): %v", d.name, S, pi, mu, err)
			}
			if res.ConflictFree != free {
				t.Fatalf("%s(S=%v Π=%v μ=%v) = %v, brute force conflict-free=%v (witness %v)", d.name, S, pi, mu, res, free, bf)
			}
			if g := res.Witness; !res.ConflictFree && g != nil {
				if g.IsZero() || !T.MulVec(g).IsZero() || Feasible(set, g) {
					t.Fatalf("%s(S=%v Π=%v μ=%v): witness %v (%s) is not an in-box null vector of T", d.name, S, pi, mu, g, res.Method)
				}
			}
		}
	})
}
