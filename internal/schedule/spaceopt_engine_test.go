package schedule

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestEnumerateDegenerateAxis is the regression test for the
// divide-by-zero on μ_i = 0: degenerate axes are enumerated at
// effective weight 1 instead of crashing the recursion.
func TestEnumerateDegenerateAxis(t *testing.T) {
	var got []string
	enumerate(intmat.Vec(0, 2), 2, func(pi intmat.Vector) bool {
		got = append(got, pi.String())
		return true
	})
	// Weights (1, 2): |π_0| + 2|π_1| = 2 → (-2,0), (0,-1), (0,1), (2,0).
	want := []string{"[-2 0]", "[0 -1]", "[0 1]", "[2 0]"}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
	// All-degenerate index set: the full level must still enumerate.
	count := 0
	enumerate(intmat.Vec(0, 0), 1, func(intmat.Vector) bool {
		count++
		return true
	})
	if count != 4 { // (-1,0), (0,-1), (0,1), (1,0)
		t.Errorf("all-zero μ level 1 visited %d candidates, want 4", count)
	}
}

// TestEnumerateSuffixGCDComplete checks the gcd subtree pruning against
// a reference enumeration on mixed weights: the same candidate set, in
// the same order.
func TestEnumerateSuffixGCDComplete(t *testing.T) {
	mu := intmat.Vec(2, 3, 4)
	for cost := int64(1); cost <= 15; cost++ {
		var got []string
		enumerate(mu, cost, func(pi intmat.Vector) bool {
			got = append(got, pi.String())
			return true
		})
		var want []string
		var rec func(i int, remaining int64, pi intmat.Vector)
		rec = func(i int, remaining int64, pi intmat.Vector) {
			if i == len(mu) {
				if remaining == 0 {
					want = append(want, pi.String())
				}
				return
			}
			maxAbs := remaining / mu[i]
			for v := -maxAbs; v <= maxAbs; v++ {
				pi[i] = v
				used := v * mu[i]
				if used < 0 {
					used = -used
				}
				rec(i+1, remaining-used, pi)
			}
			pi[i] = 0
		}
		rec(0, cost, make(intmat.Vector, len(mu)))
		if len(got) != len(want) {
			t.Fatalf("cost %d: %d candidates, want %d", cost, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cost %d: candidate %d = %s, want %s", cost, i, got[i], want[i])
			}
		}
	}
}

// TestFindJointMappingPropagatesInnerErrors: an inner search failing
// for a reason other than "no schedule in range" must abort the joint
// search, not be silently skipped as if the candidate were infeasible.
func TestFindJointMappingPropagatesInnerErrors(t *testing.T) {
	algo := uda.MatMul(3)
	// MinimizeBuffers without a Machine is a configuration error the
	// inner search reports for every candidate.
	_, err := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{MinimizeBuffers: true}})
	if err == nil {
		t.Fatal("configuration error swallowed")
	}
	if errors.Is(err, ErrNoSchedule) {
		t.Fatalf("configuration error reported as ErrNoSchedule: %v", err)
	}
	// A genuinely bounded-out search is ErrNoSchedule: every inner
	// search exhausts MaxCost = 2 (the matmul optimum needs cost 15).
	_, err = FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{MaxCost: 2}})
	if err == nil {
		t.Fatal("expected ErrNoSchedule for MaxCost = 2")
	}
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("bounded-out search returned %v, want ErrNoSchedule", err)
	}
}

// jointFingerprint captures every deterministic field of a joint
// result. Pruned is deliberately excluded: with Workers > 1 the
// lower-bound rule races the incumbent, so the number of pruned
// candidates (but never the winner) may vary between runs.
func jointFingerprint(r *JointResult) string {
	return fmt.Sprintf("S=%v Pi=%v t=%d cost=%d procs=%d wire=%d cands=%d inner=%d innerT=%d",
		r.Mapping.S, r.Mapping.Pi, r.Time, r.Cost, r.Processors, r.WireLength,
		r.Candidates, r.ScheduleResult.Candidates, r.ScheduleResult.Time)
}

// TestFindJointMappingDeterministicWorkers: the joint search must
// return byte-identical results (same S, Π, cost, time) at any worker
// count, on every seed algorithm.
func TestFindJointMappingDeterministicWorkers(t *testing.T) {
	cases := []struct {
		algo *uda.Algorithm
		dims int
	}{
		{uda.MatMul(3), 1},
		{uda.MatMul(4), 1},
		{uda.MatMul(3), 2},
		{uda.TransitiveClosure(3), 1},
		{uda.TransitiveClosure(4), 1},
		{uda.TransitiveClosure(3), 2},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/dims=%d", c.algo.Name, c.dims)
		t.Run(name, func(t *testing.T) {
			seq, err := FindJointMapping(c.algo, c.dims, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := jointFingerprint(seq)
			for _, workers := range []int{2, 8} {
				for rep := 0; rep < 3; rep++ {
					par, err := FindJointMapping(c.algo, c.dims, &SpaceOptions{Schedule: Options{Workers: workers}})
					if err != nil {
						t.Fatal(err)
					}
					if got := jointFingerprint(par); got != want {
						t.Fatalf("workers=%d rep=%d:\n got %s\nwant %s", workers, rep, got, want)
					}
				}
			}
		})
	}
}

// TestFindSpaceMappingDeterministicWorkers: same guarantee for the
// Problem 6.1 search.
func TestFindSpaceMappingDeterministicWorkers(t *testing.T) {
	algo := uda.MatMul(4)
	pi := intmat.Vec(1, 4, 1)
	seq, err := FindSpaceMapping(algo, pi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := FindSpaceMapping(algo, pi, 1, &SpaceOptions{Schedule: Options{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if par.Mapping.S.String() != seq.Mapping.S.String() || par.Cost != seq.Cost ||
			par.Processors != seq.Processors || par.Candidates != seq.Candidates {
			t.Fatalf("workers=%d: got %v cost=%d, want %v cost=%d",
				workers, par.Mapping.S, par.Cost, seq.Mapping.S, seq.Cost)
		}
	}
}

// TestPruningPreservesWinner: symmetry and lower-bound pruning are
// exact — NoPrune must reproduce the identical winner, only slower.
func TestPruningPreservesWinner(t *testing.T) {
	for _, algo := range []*uda.Algorithm{uda.MatMul(3), uda.TransitiveClosure(3)} {
		pruned, err := FindJointMapping(algo, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := FindJointMapping(algo, 1, &SpaceOptions{NoPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if jointFingerprint(pruned) != jointFingerprint(full) {
			t.Errorf("%s: pruned winner %s != unpruned %s",
				algo.Name, jointFingerprint(pruned), jointFingerprint(full))
		}
		if full.Pruned != 0 {
			t.Errorf("%s: NoPrune still pruned %d candidates", algo.Name, full.Pruned)
		}
		if pruned.Pruned == 0 {
			t.Errorf("%s: pruning rules never fired", algo.Name)
		}
	}
}

// TestRowImageSize checks the closed-form 1-D processor count against
// direct enumeration.
func TestRowImageSize(t *testing.T) {
	cases := []struct {
		row   intmat.Vector
		upper intmat.Vector
	}{
		{intmat.Vec(1, 1, -1), intmat.Vec(4, 4, 4)},
		{intmat.Vec(1, -1, 0), intmat.Vec(4, 4, 4)},
		{intmat.Vec(0, 0, 1), intmat.Vec(2, 3, 5)},
		{intmat.Vec(2, -3), intmat.Vec(5, 2)},
		{intmat.Vec(3, 5), intmat.Vec(1, 1)},
		{intmat.Vec(0, 0), intmat.Vec(3, 3)},
		{intmat.Vec(-2, 4, 7), intmat.Vec(2, 0, 3)},
	}
	for _, c := range cases {
		want := map[int64]bool{}
		set := uda.IndexSet{Upper: c.upper}
		set.Each(func(j intmat.Vector) bool {
			want[c.row.Dot(j)] = true
			return true
		})
		if got := new(imageCounter).rowImageSize(c.row, c.upper); got != int64(len(want)) {
			t.Errorf("rowImageSize(%v, %v) = %d, want %d", c.row, c.upper, got, len(want))
		}
	}
}

// TestCountProcessorImages checks the keyed enumeration for multi-row S
// against a string-set reference.
func TestCountProcessorImages(t *testing.T) {
	algo := uda.MatMul(3)
	s := intmat.FromRows([]int64{1, 0, -1}, []int64{0, 1, 1})
	want := map[string]bool{}
	algo.Set.Each(func(j intmat.Vector) bool {
		want[s.MulVec(j).String()] = true
		return true
	})
	// Repeated and interleaved calls reuse pooled image sets, which must
	// come back empty.
	// (1,1,0) takes 7 values and (0,0,1) 4 on the 0..3 cube: 28 images.
	other := intmat.FromRows([]int64{1, 1, 0}, []int64{0, 0, 1})
	for i := 0; i < 3; i++ {
		if got := countProcessorImages(s, algo.Set); got != int64(len(want)) {
			t.Errorf("call %d: countProcessorImages = %d, want %d", i, got, len(want))
		}
		if got := countProcessorImages(other, algo.Set); got != 28 {
			t.Errorf("call %d: countProcessorImages(other) = %d, want 28", i, got)
		}
	}
	// Lower bound must never exceed the exact count.
	if lb := processorLowerBound(s, algo.Set.Upper); lb > int64(len(want)) {
		t.Errorf("processorLowerBound = %d exceeds exact count %d", lb, len(want))
	}
}

// TestAxisAutomorphisms pins the symmetry groups of the two flagship
// algorithms: matmul (D = I on a cube) is invariant under all 3! axis
// permutations; transitive closure only under swapping the last two
// axes.
func TestAxisAutomorphisms(t *testing.T) {
	if got := len(axisAutomorphisms(uda.MatMul(3), nil)); got != 5 {
		t.Errorf("matmul automorphisms = %d, want 5 (S₃ minus identity)", got)
	}
	perms := axisAutomorphisms(uda.TransitiveClosure(3), nil)
	if len(perms) != 1 || perms[0][0] != 0 || perms[0][1] != 2 || perms[0][2] != 1 {
		t.Errorf("transitive closure automorphisms = %v, want [[0 2 1]]", perms)
	}
	// A fixed Π that breaks the symmetry must shrink the group.
	if got := len(axisAutomorphisms(uda.MatMul(3), intmat.Vec(1, 3, 1))); got != 1 {
		t.Errorf("matmul automorphisms fixing Π=[1,3,1] = %d, want 1 (swap axes 0,2)", got)
	}
}

// TestFindJointMappingConflictFreeAllWorkers spot-checks that parallel
// winners are genuinely conflict-free, not just internally consistent.
func TestFindJointMappingConflictFreeAllWorkers(t *testing.T) {
	algo := uda.TransitiveClosure(3)
	res, err := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if free, w := conflict.BruteForce(res.Mapping.T, algo.Set); !free {
		t.Fatalf("parallel winner conflicts (witness %v)", w)
	}
}

// TestJointSearchAllocs bounds the allocations of a whole Workers=1
// joint search on MatMul(4) (13 space mappings, 5 inner searches). The
// bound is 3 above the 136 measured when it was set (605 before the
// shape catalogue, 696 before the per-candidate overhead was cut),
// fewer than one per inner search, so a per-S allocation in the
// prelude, the inner search or the image count cannot creep back
// unnoticed.
func TestJointSearchAllocs(t *testing.T) {
	if intmat.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	algo := uda.MatMul(4)
	opts := &SpaceOptions{Schedule: Options{Workers: 1}}
	// Garbage collection would empty the scratch and counter pools
	// mid-measurement and add stray allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(10, func() {
		if _, err := FindJointMapping(algo, 1, opts); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 139
	if got > bound {
		t.Fatalf("a Workers=1 joint search on MatMul(4) takes %v allocations, bound %d", got, bound)
	}
}
