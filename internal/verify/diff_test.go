package verify

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
)

// The differential harness: three independent oracles over the same
// seeded instance stream. Any disagreement is shrunk to a minimal
// reproducer before failing, so a regression reads as a small concrete
// matrix, not a seed number.

const diffInstances = 220

// TestDifferentialConflictDecisions cross-checks this package's
// independent conflict decision against the definitional brute force
// and against the production decision procedure on every instance.
func TestDifferentialConflictDecisions(t *testing.T) {
	r := rand.New(rand.NewSource(0x10d1_4a5e))
	disagreeBF := func(in instance) bool {
		vFree, _, err := DecideConflict(context.Background(), in.t, in.set())
		if err != nil {
			return false
		}
		bfFree, _ := conflict.BruteForce(in.t, in.set())
		return vFree != bfFree
	}
	for i := 0; i < diffInstances; i++ {
		in := genInstance(r)
		vFree, vWit, err := DecideConflict(context.Background(), in.t, in.set())
		if err != nil {
			t.Fatalf("instance %d: DecideConflict: %v\n%v", i, err, in)
		}
		bfFree, bfWit := conflict.BruteForce(in.t, in.set())
		if vFree != bfFree {
			min := shrink(in, disagreeBF)
			t.Fatalf("instance %d: verify says free=%v, brute force says free=%v (bf witness %v)\nminimal reproducer:\n%v",
				i, vFree, bfFree, bfWit, min)
		}
		res, err := conflict.Decide(in.t, in.set())
		if err != nil {
			if errors.Is(err, conflict.ErrBudget) {
				continue
			}
			t.Fatalf("instance %d: Decide: %v\n%v", i, err, in)
		}
		if res.ConflictFree != vFree {
			t.Fatalf("instance %d: verify says free=%v, conflict.Decide says free=%v (method %s)\n%v",
				i, vFree, res.ConflictFree, res.Method, in)
		}
		if !vFree {
			// The witness must be a genuine conflict: non-zero, in
			// null(T), inside the box.
			if vWit.IsZero() {
				t.Fatalf("instance %d: conflict verdict without witness\n%v", i, in)
			}
			for row := 0; row < in.k(); row++ {
				if in.t.Row(row).Dot(vWit) != 0 {
					t.Fatalf("instance %d: witness %v not in null(T)\n%v", i, vWit, in)
				}
			}
			if conflict.Feasible(in.set(), vWit) {
				t.Fatalf("instance %d: witness %v is feasible — no conflict\n%v", i, vWit, in)
			}
		}
	}
}

// TestDifferentialClosedFormGamma checks, for every k = n−1 instance,
// that the Theorem 3.1 closed-form conflict vector (signed maximal
// minors) and the HNF-derived null basis agree up to the paper's
// normalization.
func TestDifferentialClosedFormGamma(t *testing.T) {
	r := rand.New(rand.NewSource(0x31_c105_ed))
	seen := 0
	for i := 0; seen < diffInstances; i++ {
		in := genInstance(r)
		if in.k() != in.n()-1 {
			continue
		}
		seen++
		gammaCF, err := conflict.UniqueConflictVector(in.t)
		if err != nil {
			t.Fatalf("instance %d: UniqueConflictVector on full-rank T: %v\n%v", i, err, in)
		}
		h, err := intmat.HermiteNormalForm(in.t)
		if err != nil {
			t.Fatalf("instance %d: HermiteNormalForm: %v\n%v", i, err, in)
		}
		basis := h.NullBasis()
		if len(basis) != 1 {
			t.Fatalf("instance %d: %d basis vectors for k = n−1\n%v", i, len(basis), in)
		}
		gammaHNF := basis[0].Canonical()
		if !gammaHNF.Equal(gammaCF) {
			t.Fatalf("instance %d: closed-form γ = %v, HNF γ = %v\n%v", i, gammaCF, gammaHNF, in)
		}
		// Both must make the same feasibility call as the full decision.
		free, _, err := DecideConflict(context.Background(), in.t, in.set())
		if err != nil {
			t.Fatalf("instance %d: DecideConflict: %v\n%v", i, err, in)
		}
		if feas := conflict.Feasible(in.set(), gammaCF); feas != free {
			t.Fatalf("instance %d: Feasible(γ) = %v but decision free = %v\n%v", i, feas, free, in)
		}
	}
}

// TestMetamorphicPermutationInvariance certifies each instance and its
// image under a random axis permutation — the transformation
// internal/service/canon.go applies for cache canonicalization — and
// demands identical verdicts and permutation-covariant witnesses.
func TestMetamorphicPermutationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(0x9e7a))
	opts := &Options{SkipOptimality: true}
	for i := 0; i < diffInstances; i++ {
		ci := genCertInstance(r)
		perm := r.Perm(ci.algo.Dim())
		cp := ci.permuted(perm)

		cert, err := Certify(ci.algo, ci.s, ci.pi, opts)
		if err != nil {
			t.Fatalf("instance %d: Certify: %v", i, err)
		}
		certP, err := Certify(cp.algo, cp.s, cp.pi, opts)
		if err != nil {
			t.Fatalf("instance %d: Certify permuted: %v", i, err)
		}
		if cert.Valid != certP.Valid {
			t.Fatalf("instance %d (perm %v): valid %v vs %v\noriginal: %v / %v\npermuted: %v / %v",
				i, perm, cert.Valid, certP.Valid, cert.FailedWitness, cert.FailedDetail, certP.FailedWitness, certP.FailedDetail)
		}
		if cert.ConflictFree != certP.ConflictFree {
			t.Fatalf("instance %d (perm %v): conflict-free %v vs %v", i, perm, cert.ConflictFree, certP.ConflictFree)
		}
		if cert.Valid && cert.FailedWitness != certP.FailedWitness {
			t.Fatalf("instance %d (perm %v): failed witness %q vs %q", i, perm, cert.FailedWitness, certP.FailedWitness)
		}
		// Total time 1 + Σ|π_i|μ_i is a sum over axes — permutation
		// invariant.
		if cert.TotalTime != certP.TotalTime {
			t.Fatalf("instance %d (perm %v): total time %d vs %d", i, perm, cert.TotalTime, certP.TotalTime)
		}
		// Schedule witnesses: dependence columns keep their order, dot
		// products are permutation invariant.
		for j := range cert.Schedule {
			if cert.Schedule[j].Dot != certP.Schedule[j].Dot {
				t.Fatalf("instance %d (perm %v): dep %d dot %d vs %d",
					i, perm, j, cert.Schedule[j].Dot, certP.Schedule[j].Dot)
			}
		}
		// A conflict witness of the permuted problem, mapped back, must
		// be a conflict of the original (γ_orig[perm[i]] = γ_perm[i]).
		if certP.ConflictWitness != nil {
			back := make(intmat.Vector, len(certP.ConflictWitness))
			for idx, ax := range perm {
				back[ax] = certP.ConflictWitness[idx]
			}
			tm := ci.s.AppendRow(ci.pi)
			for row := 0; row < tm.Rows(); row++ {
				if tm.Row(row).Dot(back) != 0 {
					t.Fatalf("instance %d (perm %v): mapped-back witness %v not in null(T)", i, perm, back)
				}
			}
			if conflict.Feasible(ci.algo.Set, back) {
				t.Fatalf("instance %d (perm %v): mapped-back witness %v is feasible", i, perm, back)
			}
		}
	}
}

// TestDifferentialDeepNullSpace cross-checks the lattice search where
// it does the work: null spaces of dimension ≥ 3 (n = 5…7, k ≤ n − 3,
// entries in [−4, 4], μ ≤ 3), against the definitional brute force and
// the production decision, plus the deep mappings whose β boxes ran to
// millions of points under the old sweep.
func TestDifferentialDeepNullSpace(t *testing.T) {
	seeds := []instance{
		// The service's deep mapping: conflict-free, null dimension 4.
		{t: intmat.FromRows([]int64{1, 0, 1, 7, 49, 343}, []int64{0, 1, 2, 0, 0, 0}), mu: intmat.Vec(1, 1, 3, 3, 3, 2)},
		// The conflict fuzzer's seed: S = (1 3 9 … 729), Π = 1⁷.
		{t: intmat.FromRows([]int64{1, 3, 9, 27, 81, 243, 729}, []int64{1, 1, 1, 1, 1, 1, 1}), mu: intmat.Vec(2, 2, 2, 2, 2, 2, 2)},
	}
	r := rand.New(rand.NewSource(0xdee9))
	deep := 0
	for len(seeds) < 2+diffInstances {
		n := 5 + r.Intn(3)
		k := 1 + r.Intn(n-3)
		tm := intmat.New(k, n)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				tm.Set(i, j, r.Int63n(9)-4)
			}
		}
		if tm.Rank() != k {
			continue
		}
		mu := make(intmat.Vector, n)
		for i := range mu {
			mu[i] = 1 + r.Int63n(3)
		}
		seeds = append(seeds, instance{t: tm, mu: mu})
	}
	for i, in := range seeds {
		set := in.set()
		vFree, vWit, err := DecideConflict(context.Background(), in.t, set)
		if err != nil {
			t.Fatalf("instance %d: DecideConflict: %v\n%v", i, err, in)
		}
		if in.n()-in.k() >= 3 {
			deep++
		}
		if !set.SizeExceeds(1 << 14) {
			if bfFree, bfWit := conflict.BruteForce(in.t, set); vFree != bfFree {
				t.Fatalf("instance %d: verify says free=%v, brute force says free=%v (bf witness %v)\n%v",
					i, vFree, bfFree, bfWit, in)
			}
		}
		if res, err := conflict.Decide(in.t, set); err == nil && res.ConflictFree != vFree {
			t.Fatalf("instance %d: verify says free=%v, conflict.Decide says free=%v (method %s)\n%v",
				i, vFree, res.ConflictFree, res.Method, in)
		} else if err != nil && !errors.Is(err, conflict.ErrBudget) {
			t.Fatalf("instance %d: Decide: %v\n%v", i, err, in)
		}
		if i == 0 && !vFree {
			t.Fatalf("the service's deep mapping decided conflicting: witness %v", vWit)
		}
		if !vFree {
			if vWit.IsZero() || conflict.Feasible(set, vWit) {
				t.Fatalf("instance %d: witness %v is no in-box conflict\n%v", i, vWit, in)
			}
			for row := 0; row < in.k(); row++ {
				if in.t.Row(row).Dot(vWit) != 0 {
					t.Fatalf("instance %d: witness %v not in null(T)\n%v", i, vWit, in)
				}
			}
		}
	}
	if deep < diffInstances {
		t.Fatalf("%d instances with a null space of dimension ≥ 3, want ≥ %d", deep, diffInstances)
	}
}
