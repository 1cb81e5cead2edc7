// Repository-level benchmark harness: one benchmark per evaluation
// artifact of the paper (see the per-experiment index in DESIGN.md).
// Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks print, once per run, the quantity the paper reports
// (total execution time, buffer counts, engine effort) via b.Log, so a
// -v run doubles as a results table.
package lodim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"lodim/internal/array"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/jobs"
	"lodim/internal/loopnest"
	"lodim/internal/schedule"
	"lodim/internal/service"
	"lodim/internal/spacetime"
	"lodim/internal/systolic"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

// BenchmarkExample51Procedure regenerates Example 5.1 (E1): the
// time-optimal conflict-free schedule for 3-D matmul on a linear array
// via Procedure 5.1. Paper: Π° ∈ {[1,μ,1],[μ,1,1]}, t = μ(μ+2)+1.
func BenchmarkExample51Procedure(b *testing.B) {
	for _, mu := range []int64{4, 8} {
		b.Run(fmt.Sprintf("mu=%d", mu), func(b *testing.B) {
			algo := uda.MatMul(mu)
			s := intmat.FromRows([]int64{1, 1, -1})
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindOptimal(algo, s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			if want := mu*(mu+2) + 1; res.Time != want {
				b.Fatalf("t = %d, want %d", res.Time, want)
			}
			b.Logf("μ=%d: t=%d (paper μ(μ+2)+1=%d), Π=%v, %d candidates", mu, res.Time, mu*(mu+2)+1, res.Mapping.Pi, res.Candidates)
		})
	}
}

// BenchmarkExample51ILP regenerates E1 through the paper's integer
// programming formulation (Section 5 / appendix Equation 8.1).
func BenchmarkExample51ILP(b *testing.B) {
	for _, mu := range []int64{4, 8} {
		b.Run(fmt.Sprintf("mu=%d", mu), func(b *testing.B) {
			algo := uda.MatMul(mu)
			s := intmat.FromRows([]int64{1, 1, -1})
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindOptimalILP(algo, s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			if want := mu*(mu+2) + 1; res.Time != want {
				b.Fatalf("t = %d, want %d", res.Time, want)
			}
			b.Logf("μ=%d: t=%d, Π=%v, %d B&B nodes", mu, res.Time, res.Mapping.Pi, res.Candidates)
		})
	}
}

// BenchmarkExample51Buffers regenerates E2: the buffer comparison of
// Example 5.1 — 3 buffers for the optimal design versus 4 for [23]'s
// schedule Π' = [2,1,μ] at μ = 4.
func BenchmarkExample51Buffers(b *testing.B) {
	machine := array.NearestNeighbor(1)
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	var opt, ref *array.Decomposition
	var err error
	for i := 0; i < b.N; i++ {
		opt, err = machine.Decompose(s, algo.D, intmat.Vec(1, 4, 1))
		if err != nil {
			b.Fatal(err)
		}
		ref, err = machine.Decompose(s, algo.D, intmat.Vec(2, 1, 4))
		if err != nil {
			b.Fatal(err)
		}
	}
	if opt.TotalBuffers() != 3 || ref.TotalBuffers() != 4 {
		b.Fatalf("buffers %d/%d, want 3/4", opt.TotalBuffers(), ref.TotalBuffers())
	}
	b.Logf("buffers: optimal=%d, [23]=%d (paper: 3 vs 4)", opt.TotalBuffers(), ref.TotalBuffers())
}

// BenchmarkExample52Procedure regenerates E3/E4: transitive closure,
// t = μ(μ+3)+1 versus [22]'s μ(2μ+3)+1.
func BenchmarkExample52Procedure(b *testing.B) {
	for _, mu := range []int64{4, 8} {
		b.Run(fmt.Sprintf("mu=%d", mu), func(b *testing.B) {
			algo := uda.TransitiveClosure(mu)
			s := intmat.FromRows([]int64{0, 0, 1})
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindOptimal(algo, s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			if want := mu*(mu+3) + 1; res.Time != want {
				b.Fatalf("t = %d, want %d", res.Time, want)
			}
			b.Logf("μ=%d: t=%d vs [22] t'=%d (%.2fx)", mu, res.Time, mu*(2*mu+3)+1,
				float64(mu*(2*mu+3)+1)/float64(res.Time))
		})
	}
}

// BenchmarkExample52ILP is E3 through the ILP engine (appendix Eq 8.2).
func BenchmarkExample52ILP(b *testing.B) {
	algo := uda.TransitiveClosure(4)
	s := intmat.FromRows([]int64{0, 0, 1})
	var res *schedule.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = schedule.FindOptimalILP(algo, s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Time != 29 {
		b.Fatalf("t = %d, want 29", res.Time)
	}
}

// BenchmarkFigure1 regenerates F1: the feasibility classification of
// conflict vectors in a 2-D index set.
func BenchmarkFigure1(b *testing.B) {
	set := uda.Box(4, 4)
	for i := 0; i < b.N; i++ {
		if _, err := spacetime.RenderIndexSet2D(set, intmat.Vec(1, 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := spacetime.RenderIndexSet2D(set, intmat.Vec(3, 5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates F2: the linear-array block diagram.
func BenchmarkFigure2(b *testing.B) {
	m, err := schedule.NewMapping(uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1}), intmat.Vec(1, 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	dec, err := array.NearestNeighbor(1).Decompose(m.S, m.Algo.D, m.Pi)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spacetime.RenderLinearArray(m, dec, []string{"B", "A", "C"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Simulation regenerates F3: the full cycle-accurate
// execution of the μ = 4 matmul design, including the product check.
func BenchmarkFigure3Simulation(b *testing.B) {
	mu := int64(4)
	rng := rand.New(rand.NewSource(3))
	n := int(mu + 1)
	a := make([][]int64, n)
	bb := make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]int64, n)
		bb[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			a[i][j] = rng.Int63n(19) - 9
			bb[i][j] = rng.Int63n(19) - 9
		}
	}
	m, err := schedule.NewMapping(uda.MatMul(mu), intmat.FromRows([]int64{1, 1, -1}), intmat.Vec(1, mu, 1))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := systolic.NewMatMulProgram(mu, a, bb)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := systolic.New(m, prog, array.NearestNeighbor(1))
	if err != nil {
		b.Fatal(err)
	}
	var run *systolic.RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err = sim.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if run.Cycles != mu*(mu+2)+1 || len(run.Conflicts) != 0 || len(run.Collisions) != 0 {
		b.Fatalf("cycles=%d conflicts=%d collisions=%d", run.Cycles, len(run.Conflicts), len(run.Collisions))
	}
	want := systolic.MatMulReference(a, bb)
	got := systolic.CollectMatMulOutputs(mu, run.Outputs)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				b.Fatal("product mismatch")
			}
		}
	}
}

// BenchmarkHNFExample regenerates X1: the Hermite normal form of the
// Example 2.1 mapping matrix and the conflict decision.
func BenchmarkHNFExample(b *testing.B) {
	T := intmat.FromRows([]int64{1, 7, 1, 1}, []int64{1, 7, 1, 0})
	set := uda.Cube(4, 6)
	for i := 0; i < b.N; i++ {
		res, err := conflict.Decide(T, set)
		if err != nil {
			b.Fatal(err)
		}
		if res.ConflictFree {
			b.Fatal("Example 2.1 matrix reported conflict-free")
		}
	}
}

// BenchmarkProp81 regenerates X2: the closed-form null basis versus the
// general HNF on a normalized 2×5 space mapping.
func BenchmarkProp81(b *testing.B) {
	s := intmat.FromRows(
		[]int64{1, 0, 1, 0, 1},
		[]int64{0, 1, 0, 1, 1},
	)
	pi := intmat.Vec(1, 1, 3, 9, 27)
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := schedule.Prop81NullVectors(s, pi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hnf", func(b *testing.B) {
		T := s.AppendRow(pi)
		for i := 0; i < b.N; i++ {
			if _, err := intmat.HermiteNormalForm(T); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngines is X3/X5: the formulation-versus-enumeration
// ablation. The ILP effort is insensitive to μ while Procedure 5.1's
// candidate count grows with the optimum's objective value.
//
// The problem instance is built inside each b.Run so every
// sub-benchmark starts from freshly constructed state and nothing is
// shared (or amortized away) across the μ sweep. The ilp/* rows still
// report near-identical B/op and allocs/op across μ — that is genuine:
// Equation 8.1 produces a structure-identical LP whose coefficients,
// not shape, change with μ, so the branch-and-bound trace is the same
// size at every μ.
func BenchmarkEngines(b *testing.B) {
	for _, mu := range []int64{4, 8, 12} {
		b.Run(fmt.Sprintf("procedure/mu=%d", mu), func(b *testing.B) {
			algo := uda.MatMul(mu)
			s := intmat.FromRows([]int64{1, 1, -1})
			b.ResetTimer()
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindOptimal(algo, s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Candidates), "candidates")
		})
		b.Run(fmt.Sprintf("ilp/mu=%d", mu), func(b *testing.B) {
			algo := uda.MatMul(mu)
			s := intmat.FromRows([]int64{1, 1, -1})
			b.ResetTimer()
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindOptimalILP(algo, s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Candidates), "nodes")
		})
	}
}

// BenchmarkBitLevelConvolution is X4a: the 4-D bit-level convolution
// mapped into a 2-D array (Theorem 3.1 regime).
func BenchmarkBitLevelConvolution(b *testing.B) {
	algo := uda.BitLevelConvolution(4, 3, 3)
	s := intmat.FromRows(
		[]int64{1, 0, 0, 0},
		[]int64{0, 1, 0, 0},
	)
	var res *schedule.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = schedule.FindOptimal(algo, s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("Π=%v t=%d via %s", res.Mapping.Pi, res.Time, res.Conflict.Method)
}

// BenchmarkBitLevelMatMul is X4b: the 5-D bit-level matmul mapped into
// a 2-D array (Theorem 4.7 regime).
func BenchmarkBitLevelMatMul(b *testing.B) {
	algo := uda.BitLevelMatMul(2, 2)
	s := intmat.FromRows(
		[]int64{1, 0, 0, 0, 0},
		[]int64{0, 1, 0, 0, 0},
	)
	var res *schedule.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = schedule.FindOptimal(algo, s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("Π=%v t=%d via %s", res.Mapping.Pi, res.Time, res.Conflict.Method)
}

// BenchmarkDecideScaling sweeps the conflict decision across algorithm
// dimension and codimension — the shape study for the theorem ladder:
// k = n−1 uses the closed form, k = n−2/n−3 the certificate + fallback,
// and the cost of the exact fallback grows with the β-lattice bounds.
func BenchmarkDecideScaling(b *testing.B) {
	cases := []struct {
		name string
		t    *intmat.Matrix
		mu   int64
	}{
		{"n=3/k=2", intmat.FromRows([]int64{1, 1, -1}, []int64{1, 4, 1}), 4},
		{"n=4/k=2", intmat.FromRows([]int64{1, 7, 1, 1}, []int64{1, 7, 1, 0}), 6},
		{"n=5/k=3", intmat.FromRows([]int64{1, 0, 0, 0, 0}, []int64{0, 1, 0, 0, 0}, []int64{1, 1, 1, 9, 3}), 2},
		{"n=6/k=3", intmat.FromRows(
			[]int64{1, 0, 0, -8, 0, 0},
			[]int64{0, 1, 0, 0, -8, 0},
			[]int64{0, 0, 1, 0, 0, -8}), 7},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			set := uda.Cube(c.t.Cols(), c.mu)
			for i := 0; i < b.N; i++ {
				if _, err := conflict.Decide(c.t, set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchScaling sweeps Procedure 5.1 across problem size for
// the matmul workload — the empirical form of the paper's complexity
// claim that enumeration effort grows with the optimum's objective.
func BenchmarkSearchScaling(b *testing.B) {
	for _, mu := range []int64{2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("mu=%d", mu), func(b *testing.B) {
			algo := uda.MatMul(mu)
			s := intmat.FromRows([]int64{1, 1, -1})
			var res *schedule.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindOptimal(algo, s, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Candidates), "candidates")
		})
	}
}

// BenchmarkFrontend measures the source-to-algorithm pipeline: parse,
// dependence analysis and uniformization of the matmul statement.
func BenchmarkFrontend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nest, err := loopnest.Parse("mm", []string{"i", "j", "k"}, []int64{4, 4, 4},
			"C[i,j] = C[i,j] + A[i,k] * B[k,j]")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loopnest.Analyze(nest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitSerialMatMul times the full functional bit-serial
// execution (243 computations, carry chains, product verification
// input) on the 5-D mapping.
func BenchmarkBitSerialMatMul(b *testing.B) {
	algo := uda.BitLevelMatMul(2, 2)
	m, err := schedule.NewMapping(algo,
		intmat.FromRows([]int64{1, 0, 0, 0, 0}, []int64{0, 1, 0, 0, 0}),
		intmat.Vec(1, 1, 1, 9, 3))
	if err != nil {
		b.Fatal(err)
	}
	a := [][]int64{{7, 2, 5}, {1, 6, 3}, {4, 0, 7}}
	bb := [][]int64{{3, 5, 1}, {7, 2, 0}, {6, 4, 2}}
	prog, err := systolic.NewBitMatMulProgram(2, 2, a, bb)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := systolic.New(m, prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointMapping measures the Problem 6.2 engine (X6): the full
// joint (S, Π) search on the two flagship algorithms, on the slowest
// distinct problem of the committed corpus (bitlevel/00026: μ = 3⁴,
// dependences e1–e4 and (1,1,0,0)) and on a 2-D array (corpus
// matmul/00000: μ = (4,4,7), where every evaluated S reaches the
// multi-row processor count), sequentially and with each level's live
// space mappings split across two workers, plus the bit-level matrix product
// μ = (1, 2) sequentially. The custom units report the search effort —
// space candidates enumerated versus pruned before evaluation and, on
// the sequential rows, schedule candidates counted and cost levels
// walked, and conflict decisions by method — and the log line the
// invariant winner.
func BenchmarkJointMapping(b *testing.B) {
	bitlevel := &uda.Algorithm{
		Name: "bitlevel-00026",
		Set:  uda.Cube(4, 3),
		D:    intmat.FromRows([]int64{1, 0, 0, 0, 1}, []int64{0, 1, 0, 0, 1}, []int64{0, 0, 1, 0, 0}, []int64{0, 0, 0, 1, 0}),
	}
	matmul2D := uda.MatMul(4)
	matmul2D.Name, matmul2D.Set = "matmul-4x4x7", uda.IndexSet{Upper: intmat.Vec(4, 4, 7)}
	both := []int{1, 2}
	cases := []struct {
		algo    *uda.Algorithm
		dims    int
		workers []int
	}{
		{uda.MatMul(4), 1, both}, {uda.TransitiveClosure(4), 1, both}, {bitlevel, 1, both}, {matmul2D, 2, both},
		// The bit-level matrix product of the paper's motivating case, at
		// its smallest non-trivial size: most of its Π fail ΠD ≥ 1.
		{uda.BitLevelMatMul(1, 2), 1, []int{1}},
		// bitlevel/00026 on a 2-D array: the 780 candidates of shape
		// (4, 2, 1), where the per-candidate prelude weighs most. The
		// shape catalogue is process-wide, so every iteration but the
		// first (and the whole row after an earlier one built the
		// shape) measures the search over an already-built shape.
		{bitlevel, 2, []int{1}},
	}
	for _, c := range cases {
		for _, workers := range c.workers {
			name := fmt.Sprintf("%s/workers=%d", c.algo.Name, workers)
			if c.dims > 1 {
				name = fmt.Sprintf("%s/dims=%d/workers=%d", c.algo.Name, c.dims, workers)
			}
			b.Run(name, func(b *testing.B) {
				opts := &schedule.SpaceOptions{Schedule: schedule.Options{Workers: workers}}
				var res *schedule.JointResult
				var err error
				for i := 0; i < b.N; i++ {
					res, err = schedule.FindJointMapping(c.algo, c.dims, opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Candidates), "candidates")
				b.ReportMetric(float64(res.Pruned), "pruned")
				if workers == 1 {
					// The counts are the same at two workers; the
					// sequential rows report them once.
					b.ReportMetric(float64(res.Stats.ScheduleCandidates), "sched")
					b.ReportMetric(float64(res.Stats.CostLevels), "levels")
					// Conflict decisions by method: found in the
					// conflict-vector table, answered from the decision
					// cache, or decomposed afresh.
					b.ReportMetric(float64(res.Stats.ConflictTable), "dec_table")
					b.ReportMetric(float64(res.Stats.HNFIncremental), "dec_cached")
					b.ReportMetric(float64(res.Stats.HNFFromScratch), "dec_fresh")
				}
				rows := make([]intmat.Vector, res.Mapping.S.Rows())
				for r := range rows {
					rows[r] = res.Mapping.S.Row(r)
				}
				b.Logf("t=%d cost=%d procs=%d: %d candidates, %d pruned, S=%v, Π=%v",
					res.Time, res.Cost, res.Processors, res.Candidates, res.Pruned, rows, res.Mapping.Pi)
			})
		}
	}
}

// BenchmarkPareto measures the multi-objective joint engine (X7): the
// full non-dominated front over (time, processors, buffers, links) at
// slack 0 (time-optimal members only) and slack 2 (widened window),
// sequentially, and at slack 2 with each level's live space mappings
// split across two workers (its sched and levels read as at one).
// The front's head must reproduce the single-objective optimum — the
// multi-objective sweep costs extra bookkeeping, never optimality.
func BenchmarkPareto(b *testing.B) {
	algos := []*uda.Algorithm{uda.MatMul(4), uda.TransitiveClosure(4)}
	for _, algo := range algos {
		joint, err := schedule.FindJointMapping(algo, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, run := range []struct {
			slack   int64
			workers int
		}{{0, 1}, {2, 1}, {2, 2}} {
			name := fmt.Sprintf("%s/slack=%d", algo.Name, run.slack)
			if run.workers > 1 {
				name += fmt.Sprintf("/workers=%d", run.workers)
			}
			b.Run(name, func(b *testing.B) {
				opts := &schedule.ParetoOptions{
					Space:     schedule.SpaceOptions{Schedule: schedule.Options{Workers: run.workers}},
					TimeSlack: run.slack,
				}
				var res *schedule.ParetoResult
				for i := 0; i < b.N; i++ {
					res, err = schedule.FindPareto(algo, 1, opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				if got := res.Front[0].Vector[schedule.ObjTime]; got != joint.Time {
					b.Fatalf("front head at t=%d, joint optimum t=%d", got, joint.Time)
				}
				b.ReportMetric(float64(len(res.Front)), "front")
				b.ReportMetric(float64(res.Candidates), "candidates")
				b.ReportMetric(float64(res.Stats.ScheduleCandidates), "sched")
				b.ReportMetric(float64(res.Stats.CostLevels), "levels")
				b.Logf("front=%d members, window [*, %d], %d candidates (%d pruned)",
					len(res.Front), res.TimeBound, res.Candidates, res.Pruned)
			})
		}
	}
}

// BenchmarkParetoCertify measures the independent Pareto verifier on
// the widened matmul front — the certification gate every front passes
// before entering a mapserve cache.
func BenchmarkParetoCertify(b *testing.B) {
	algo := uda.MatMul(4)
	res, err := schedule.FindPareto(algo, 1, &schedule.ParetoOptions{TimeSlack: 2})
	if err != nil {
		b.Fatal(err)
	}
	members := make([]verify.ParetoInput, len(res.Front))
	for i, m := range res.Front {
		members[i] = verify.ParetoInput{S: m.Mapping.S, Pi: m.Mapping.Pi, Vector: [verify.ParetoAxes]int64(m.Vector)}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := verify.CertifyPareto(ctx, algo, members, res.TimeBound, &verify.Options{SkipOptimality: true})
		if err != nil {
			b.Fatal(err)
		}
		if !cert.Valid {
			b.Fatalf("front rejected: %s (%s)", cert.FailedWitness, cert.FailedDetail)
		}
	}
}

// BenchmarkServicePareto measures the /v1/pareto fast path: a front
// query answered from the canonical cache with per-request best-member
// selection — canonicalization, LRU lookup, selection, translation.
func BenchmarkServicePareto(b *testing.B) {
	svc := service.New(service.Config{Pool: 1, SearchWorkers: 1})
	defer svc.Close()
	ctx := context.Background()
	req := &service.ParetoRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1, TimeSlack: 2}
	if _, _, err := svc.Pareto(ctx, req); err != nil {
		b.Fatal(err)
	}
	sel := &service.ParetoRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1, TimeSlack: 2,
		Mode: "lex", LexOrder: []string{"processors", "time"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status, err := svc.Pareto(ctx, sel)
		if err != nil {
			b.Fatal(err)
		}
		if status != service.CacheHit {
			b.Fatalf("status = %s, want hit", status)
		}
	}
}

// BenchmarkSpaceMapping measures the Problem 6.1 engine (X6): the
// space-mapping search under the fixed paper schedules. The search runs
// on the calling goroutine; the rows keep the workers=1 name of the
// earlier reports, which also measured a goroutine fan-out.
func BenchmarkSpaceMapping(b *testing.B) {
	cases := []struct {
		algo *uda.Algorithm
		pi   intmat.Vector
	}{
		{uda.MatMul(4), intmat.Vec(1, 4, 1)},
		{uda.TransitiveClosure(4), intmat.Vec(4, 1, 1)},
	}
	for _, c := range cases {
		b.Run(c.algo.Name+"/workers=1", func(b *testing.B) {
			var res *schedule.SpaceResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = schedule.FindSpaceMapping(c.algo, c.pi, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Candidates), "candidates")
			b.ReportMetric(float64(res.Pruned), "pruned")
			b.Logf("cost=%d procs=%d wire=%d: %d candidates, %d pruned",
				res.Cost, res.Processors, res.WireLength, res.Candidates, res.Pruned)
		})
	}
}

// BenchmarkServiceCacheHit measures the mapserve fast path: a map
// request answered from the canonical cache — canonicalization plus an
// LRU lookup plus result translation, no search.
func BenchmarkServiceCacheHit(b *testing.B) {
	svc := service.New(service.Config{Pool: 1, SearchWorkers: 1})
	defer svc.Close()
	ctx := context.Background()
	req := &service.MapRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1}
	if _, _, err := svc.Map(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status, err := svc.Map(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if status != service.CacheHit {
			b.Fatalf("status = %s, want hit", status)
		}
	}
}

// BenchmarkServiceCacheMiss measures the mapserve slow path: the same
// request with the cache flushed every iteration, so each Map call runs
// the full joint (S, Π) search. The hit/miss ratio of the two
// benchmarks is the value of canonical caching.
func BenchmarkServiceCacheMiss(b *testing.B) {
	svc := service.New(service.Config{Pool: 1, SearchWorkers: 1})
	defer svc.Close()
	ctx := context.Background()
	req := &service.MapRequest{Algorithm: "matmul", Sizes: []int64{3}, Dims: 1}
	for i := 0; i < b.N; i++ {
		svc.FlushCache()
		_, status, err := svc.Map(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if status != service.CacheMiss {
			b.Fatalf("status = %s, want miss", status)
		}
	}
}

// BenchmarkMetricsScrape measures one GET /metrics through the service
// handler on a node warmed with a map miss, a map hit and a Pareto
// request, traced so the search-latency histogram carries an exemplar.
// The body goes to a discarding writer, so the op is the render alone.
func BenchmarkMetricsScrape(b *testing.B) {
	svc := service.New(service.Config{Pool: 1, SearchWorkers: 1, TraceBuffer: 16})
	defer svc.Close()
	h := service.NewHandler(svc)
	for _, c := range []struct{ path, body string }{
		{"/v1/map", `{"algorithm":"matmul","sizes":[3],"dims":1}`},
		{"/v1/map", `{"algorithm":"matmul","sizes":[3],"dims":1}`},
		{"/v1/pareto", `{"algorithm":"matmul","sizes":[3],"dims":1,"time_slack":2}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", c.path, rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), " # {trace_id=") {
		b.Fatal("warmed /metrics carries no exemplar")
	}
	w := discardWriter{http.Header{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// BenchmarkJobLifecycle measures the job tier alone: one job per op,
// submitted and followed to done through a manager with two workers and
// an executor that returns a fixed 1 KiB body at once, so the spool
// writes, queueing and event fan-out are all the op pays for.
func BenchmarkJobLifecycle(b *testing.B) {
	result := bytes.Repeat([]byte("0123456789abcdef"), 64)
	m, err := jobs.Open(jobs.Config{Dir: b.TempDir(), Workers: 2, Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		return result, nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	payload := json.RawMessage(`{"algorithm":"matmul","sizes":[4],"dims":1}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn, err := m.Submit("map", "bench", strconv.Itoa(i), payload)
		if err != nil {
			b.Fatal(err)
		}
		_, ch, cancel, err := m.Subscribe(sn.ID)
		if err != nil {
			b.Fatal(err)
		}
		for range ch { // closes at the terminal transition
		}
		cancel()
		if sn, _ := m.Get(sn.ID); sn.State != jobs.StateDone {
			b.Fatalf("job ended %s, want done", sn.State)
		}
	}
}

// BenchmarkExactVsBruteForce quantifies the decision procedures: the
// exact decision (conflict.Decide's criterion ladder) versus the
// definitional brute force on the Example 2.1 instance.
func BenchmarkExactVsBruteForce(b *testing.B) {
	T := intmat.FromRows([]int64{1, 7, 1, 1}, []int64{1, 7, 1, 0})
	set := uda.Cube(4, 6)
	b.Run("exact-lattice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := conflict.Decide(T, set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conflict.BruteForce(T, set)
		}
	})
}
