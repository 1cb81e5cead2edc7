package verify

import (
	"context"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// FuzzVerifyVsBruteForce differentially fuzzes this package's
// independent conflict decision against the definitional brute force
// on 2×4 mappings over small cubes — the same shape family as
// internal/conflict's FuzzDecideVsBruteForce, so the two fuzzers
// triangulate: if either decision procedure drifts from the
// definition, one of them catches it.
func FuzzVerifyVsBruteForce(f *testing.F) {
	f.Add(int8(1), int8(0), int8(0), int8(1), int8(0), int8(1), int8(1), int8(0), uint8(1))
	f.Add(int8(1), int8(1), int8(-1), int8(0), int8(1), int8(2), int8(3), int8(1), uint8(2))
	f.Add(int8(2), int8(-1), int8(0), int8(3), int8(0), int8(2), int8(-1), int8(1), uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i int8, muRaw uint8) {
		vals := []int64{int64(a) % 10, int64(b) % 10, int64(c) % 10, int64(d) % 10,
			int64(e) % 10, int64(g) % 10, int64(h) % 10, int64(i) % 10}
		tm := intmat.FromRows(vals[:4], vals[4:])
		if tm.Rank() != 2 {
			t.Skip("rank-deficient draw")
		}
		mu := int64(muRaw%3) + 1
		set := uda.Cube(4, mu)
		free, wit, err := DecideConflict(context.Background(), tm, set)
		if err != nil {
			t.Skip("resource limit")
		}
		bfFree, bfWit := conflict.BruteForce(tm, set)
		if free != bfFree {
			t.Fatalf("verify free=%v, brute force free=%v (bf witness %v) for T=\n%v μ=%d",
				free, bfFree, bfWit, tm, mu)
		}
		if !free {
			for row := 0; row < tm.Rows(); row++ {
				if tm.Row(row).Dot(wit) != 0 {
					t.Fatalf("witness %v not in null(T) for T=\n%v", wit, tm)
				}
			}
			if conflict.Feasible(set, wit) {
				t.Fatalf("witness %v is feasible for μ=%d — no conflict", wit, mu)
			}
		}
	})
}

// FuzzClosedFormGamma fuzzes the k = n−1 closed form of Theorem 3.1
// (signed maximal minors) against the HNF-derived null basis on 2×3
// mappings: the two derivations are independent, so agreement up to
// the paper's normalization is a strong invariant.
func FuzzClosedFormGamma(f *testing.F) {
	f.Add(int8(1), int8(1), int8(-1), int8(1), int8(2), int8(3), uint8(3))
	f.Add(int8(1), int8(0), int8(0), int8(0), int8(1), int8(1), uint8(1))
	f.Add(int8(2), int8(-3), int8(1), int8(0), int8(1), int8(-2), uint8(2))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g int8, muRaw uint8) {
		vals := []int64{int64(a) % 10, int64(b) % 10, int64(c) % 10,
			int64(d) % 10, int64(e) % 10, int64(g) % 10}
		tm := intmat.FromRows(vals[:3], vals[3:])
		if tm.Rank() != 2 {
			t.Skip("rank-deficient draw")
		}
		gammaCF, err := conflict.UniqueConflictVector(tm)
		if err != nil {
			t.Fatalf("UniqueConflictVector on full-rank T: %v\nT=\n%v", err, tm)
		}
		h, err := intmat.HermiteNormalForm(tm)
		if err != nil {
			t.Skip("overflow")
		}
		basis := h.NullBasis()
		if len(basis) != 1 {
			t.Fatalf("%d basis vectors for 2×3 full-rank T=\n%v", len(basis), tm)
		}
		if gammaHNF := basis[0].Canonical(); !gammaHNF.Equal(gammaCF) {
			t.Fatalf("closed-form γ=%v, HNF γ=%v for T=\n%v", gammaCF, gammaHNF, tm)
		}
		mu := int64(muRaw%4) + 1
		set := uda.Cube(3, mu)
		free, _, err := DecideConflict(context.Background(), tm, set)
		if err != nil {
			t.Skip("resource limit")
		}
		if feas := conflict.Feasible(set, gammaCF); feas != free {
			t.Fatalf("Feasible(γ)=%v but decision free=%v for T=\n%v μ=%d", feas, free, tm, mu)
		}
	})
}
