package exp

import (
	"fmt"

	"lodim/internal/array"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/spacetime"
	"lodim/internal/systolic"
	"lodim/internal/uda"
)

// E51 sweeps the matmul problem size and compares the measured optimum
// against the paper's closed forms: t = μ(μ+2)+1 for the optimum and
// t' = μ(μ+3)+1 for the reference [23] schedule Π' = [2,1,μ]. The
// dataflow bound (critical path, 3μ+1) shows how much of the gap to
// the absolute minimum the linear array leaves.
func E51() (*Artifact, error) {
	a := &Artifact{ID: "e51", Title: "Example 5.1 — time-optimal matmul on a linear array"}
	tbl := Table{
		Title:   "matmul, S = [1,1,-1], linear array (P = [1,-1])",
		Columns: []string{"mu", "t measured", "t paper μ(μ+2)+1", "Π° found", "t' [23] μ(μ+3)+1", "buffers opt/[23]", "dataflow bound", "speedup", "match"},
	}
	machine := array.NearestNeighbor(1)
	for mu := int64(2); mu <= 8; mu++ {
		algo := uda.MatMul(mu)
		s := intmat.FromRows([]int64{1, 1, -1})
		res, err := schedule.FindOptimal(algo, s, &schedule.Options{Machine: machine})
		if err != nil {
			return nil, err
		}
		paperT := mu*(mu+2) + 1
		refPi := intmat.Vec(2, 1, mu)
		refT := schedule.TotalTime(refPi, algo.Set)
		refDec, err := machine.Decompose(s, algo.D, refPi)
		if err != nil {
			return nil, err
		}
		cp, err := algo.CriticalPath()
		if err != nil {
			return nil, err
		}
		match := "OK"
		if res.Time != paperT {
			match = fmt.Sprintf("MISMATCH (paper %d)", paperT)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(mu), fmt.Sprint(res.Time), fmt.Sprint(paperT),
			res.Mapping.Pi.String(), fmt.Sprint(refT),
			fmt.Sprintf("%d / %d", res.Decomp.TotalBuffers(), refDec.TotalBuffers()),
			fmt.Sprint(cp),
			fmt.Sprintf("%.3fx", float64(refT)/float64(res.Time)),
			match,
		})
	}
	a.Tables = append(a.Tables, tbl)
	a.Notes = append(a.Notes,
		"the optimum is not unique; the paper reports the extreme points [1,μ,1]/[μ,1,1], the enumeration returns the lexicographically first optimal vector of equal cost.",
		"the paper states Π' = [2,1,μ] is optimal at μ = 3 (derived under [23]'s stricter model where data arrive exactly at their use time); under the paper's own relaxed timing (Equation 2.3 inequality, buffers allowed) the exhaustive search finds strictly better schedules at every μ ≥ 2.",
	)
	for _, mu := range []int64{2, 3, 4} {
		algo := uda.MatMul(mu)
		s := intmat.FromRows([]int64{1, 1, -1})
		res, err := schedule.FindOptimal(algo, s, nil)
		if err != nil {
			return nil, err
		}
		refT := schedule.TotalTime(intmat.Vec(2, 1, mu), algo.Set)
		verdict := "optimal"
		if refT > res.Time {
			verdict = "suboptimal"
		}
		a.Notes = append(a.Notes, fmt.Sprintf("μ=%d: t([2,1,μ]) = %d vs optimum %d → [23] schedule is %s here", mu, refT, res.Time, verdict))
	}
	return a, nil
}

// E52 sweeps the transitive closure and compares against the paper's
// t = μ(μ+3)+1 and [22]'s t' = μ(2μ+3)+1.
func E52() (*Artifact, error) {
	a := &Artifact{ID: "e52", Title: "Example 5.2 — time-optimal transitive closure on a linear array"}
	tbl := Table{
		Title:   "transitive closure, S = [0,0,1], linear array (P = SD)",
		Columns: []string{"mu", "t measured", "t paper μ(μ+3)+1", "Π° found", "t' [22] μ(2μ+3)+1", "speedup", "match"},
	}
	for mu := int64(2); mu <= 8; mu++ {
		algo := uda.TransitiveClosure(mu)
		s := intmat.FromRows([]int64{0, 0, 1})
		res, err := schedule.FindOptimal(algo, s, nil)
		if err != nil {
			return nil, err
		}
		paperT := mu*(mu+3) + 1
		refT := mu*(2*mu+3) + 1
		match := "OK"
		if res.Time != paperT {
			match = fmt.Sprintf("MISMATCH (paper %d)", paperT)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(mu), fmt.Sprint(res.Time), fmt.Sprint(paperT),
			res.Mapping.Pi.String(), fmt.Sprint(refT),
			fmt.Sprintf("%.3fx", float64(refT)/float64(res.Time)), match,
		})
	}
	a.Tables = append(a.Tables, tbl)
	a.Notes = append(a.Notes, "conflict vector of Π° = [μ+1,1,1]: γ = [1, -(μ+1), 0] — feasible by Theorem 2.2.")
	return a, nil
}

// Fig1 renders the feasibility classification of Figure 1.
func Fig1() (*Artifact, error) {
	a := &Artifact{ID: "fig1", Title: "Figure 1 — feasible vs non-feasible conflict vectors"}
	set := uda.Box(4, 4)
	for _, gamma := range []intmat.Vector{intmat.Vec(1, 1), intmat.Vec(3, 5)} {
		out, err := spacetime.RenderIndexSet2D(set, gamma)
		if err != nil {
			return nil, err
		}
		a.Figures = append(a.Figures, out)
	}
	return a, nil
}

func figure3Mapping() (*schedule.Mapping, error) {
	return schedule.NewMapping(uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1}), intmat.Vec(1, 4, 1))
}

// Fig2 renders the array block diagram of Figure 2.
func Fig2() (*Artifact, error) {
	a := &Artifact{ID: "fig2", Title: "Figure 2 — linear array block diagram for matmul"}
	m, err := figure3Mapping()
	if err != nil {
		return nil, err
	}
	dec, err := array.NearestNeighbor(1).Decompose(m.S, m.Algo.D, m.Pi)
	if err != nil {
		return nil, err
	}
	out, err := spacetime.RenderLinearArray(m, dec, []string{"B", "A", "C"})
	if err != nil {
		return nil, err
	}
	a.Figures = append(a.Figures, out)
	return a, nil
}

// Fig3 renders the space-time diagram of Figure 3.
func Fig3() (*Artifact, error) {
	a := &Artifact{ID: "fig3", Title: "Figure 3 — space-time execution of matmul (μ = 4)"}
	m, err := figure3Mapping()
	if err != nil {
		return nil, err
	}
	out, err := spacetime.RenderSpaceTime(m)
	if err != nil {
		return nil, err
	}
	a.Figures = append(a.Figures, out)
	return a, nil
}

// HNFExample works Examples 2.1/4.1/4.2.
func HNFExample() (*Artifact, error) {
	a := &Artifact{ID: "hnf", Title: "Examples 2.1/4.1/4.2 — Hermite normal form and conflict vectors"}
	T := intmat.FromRows(
		[]int64{1, 7, 1, 1},
		[]int64{1, 7, 1, 0},
	)
	set := uda.Cube(4, 6)
	h, err := intmat.HermiteNormalForm(T)
	if err != nil {
		return nil, err
	}
	a.Figures = append(a.Figures,
		fmt.Sprintf("T (Equation 2.8):\n%v\n\nH = TU:\n%v\n\nU:\n%v\n\nV = U^-1:\n%v", T, h.H, h.U, h.V()))
	tbl := Table{Title: "conflict vectors of Example 2.1", Columns: []string{"γ", "Tγ = 0", "feasible (Thm 2.2)"}}
	for _, g := range []intmat.Vector{intmat.Vec(0, 1, -7, 0), intmat.Vec(7, -1, 0, 0), intmat.Vec(1, 0, -1, 0)} {
		tbl.Rows = append(tbl.Rows, []string{
			g.String(), fmt.Sprint(T.MulVec(g).IsZero()), fmt.Sprint(conflict.Feasible(set, g)),
		})
	}
	a.Tables = append(a.Tables, tbl)
	res, err := conflict.Decide(T, set)
	if err != nil {
		return nil, err
	}
	a.Notes = append(a.Notes, fmt.Sprintf("verdict: %s (paper: T is NOT conflict-free — γ3 = [1,0,-1,0] is non-feasible)", res))
	return a, nil
}

// Prop81 demonstrates the closed-form null basis against the HNF.
func Prop81() (*Artifact, error) {
	a := &Artifact{ID: "prop81", Title: "Proposition 8.1 — closed-form U(Π) for T ∈ Z^{3×5}"}
	s := intmat.FromRows(
		[]int64{1, 0, 1, 0, 1},
		[]int64{0, 1, 0, 1, 1},
	)
	pi := intmat.Vec(1, 1, 3, 9, 27)
	u4, u5, err := schedule.Prop81NullVectors(s, pi)
	if err != nil {
		return nil, err
	}
	T := s.AppendRow(pi)
	h, err := intmat.HermiteNormalForm(T)
	if err != nil {
		return nil, err
	}
	a.Figures = append(a.Figures, fmt.Sprintf("S:\n%v\nΠ = %v\n\nProposition 8.1 basis:\n  u4 = %v (T·u4 = %v)\n  u5 = %v (T·u5 = %v)\nHNF basis: %v",
		s, pi, u4, T.MulVec(u4), u5, T.MulVec(u5), h.NullBasis()))
	// Same lattice, proven by Smith-form index 1 in both directions.
	b1 := intmat.New(5, 2)
	b1.SetCol(0, u4)
	b1.SetCol(1, u5)
	b2 := intmat.New(5, 2)
	for j, u := range h.NullBasis() {
		b2.SetCol(j, u)
	}
	idx12, ok12 := intmat.LatticeIndex(b1, b2)
	idx21, ok21 := intmat.LatticeIndex(b2, b1)
	a.Notes = append(a.Notes, fmt.Sprintf("lattice indexes: [HNF : Prop81] = %d (%v), [Prop81 : HNF] = %d (%v) — both 1 ⟹ identical lattices.", idx12, ok12, idx21, ok21))
	if !ok12 || !ok21 || idx12 != 1 || idx21 != 1 {
		return nil, fmt.Errorf("exp: Prop81 lattice mismatch: %d/%v, %d/%v", idx12, ok12, idx21, ok21)
	}
	return a, nil
}

// Engines compares the two optimizers (X3/X5 ablation).
func Engines() (*Artifact, error) {
	a := &Artifact{ID: "engines", Title: "Ablation — Procedure 5.1 vs ILP formulation"}
	cases := []struct {
		algo *uda.Algorithm
		s    *intmat.Matrix
	}{
		{uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(6), intmat.FromRows([]int64{1, 1, -1})},
		{uda.MatMul(8), intmat.FromRows([]int64{1, 1, -1})},
		{uda.TransitiveClosure(4), intmat.FromRows([]int64{0, 0, 1})},
		{uda.TransitiveClosure(8), intmat.FromRows([]int64{0, 0, 1})},
		{uda.LU(4), intmat.FromRows([]int64{1, 1, -1})},
		{uda.Convolution(8, 3), intmat.New(0, 2)},
	}
	tbl := Table{Columns: []string{"algorithm", "μ", "t (both)", "Π (procedure)", "candidates 5.1", "B&B nodes ILP", "verdict"}}
	for _, c := range cases {
		proc, err := schedule.FindOptimal(c.algo, c.s, nil)
		if err != nil {
			return nil, err
		}
		ilpRes, err := schedule.FindOptimalILP(c.algo, c.s, nil)
		if err != nil {
			return nil, err
		}
		agree := "agree"
		if proc.Time != ilpRes.Time {
			agree = fmt.Sprintf("DISAGREE procedure=%d ilp=%d", proc.Time, ilpRes.Time)
		}
		tbl.Rows = append(tbl.Rows, []string{
			c.algo.Name, c.algo.Set.Upper.String(), fmt.Sprint(proc.Time),
			proc.Mapping.Pi.String(), fmt.Sprint(proc.Candidates), fmt.Sprint(ilpRes.Candidates), agree,
		})
	}
	a.Tables = append(a.Tables, tbl)
	a.Notes = append(a.Notes, "the ILP explores a μ-independent number of nodes while Procedure 5.1's candidate count grows with the objective value — the shape of the paper's complexity discussion (O(n·μ^(2μ+1)) enumeration vs polynomial integer programming).")
	return a, nil
}

// BitLevel maps the paper's motivating bit-level algorithms into 2-D
// arrays (X4).
func BitLevel() (*Artifact, error) {
	a := &Artifact{ID: "bitlevel", Title: "Bit-level studies — 4-D convolution and 5-D matmul into 2-D arrays"}
	tbl := Table{Columns: []string{"algorithm", "n", "μ", "S rows", "Π°", "t", "certificate", "candidates"}}

	conv := uda.BitLevelConvolution(4, 3, 3)
	sConv := intmat.FromRows([]int64{1, 0, 0, 0}, []int64{0, 1, 0, 0})
	resConv, err := schedule.FindOptimal(conv, sConv, nil)
	if err != nil {
		return nil, err
	}
	tbl.Rows = append(tbl.Rows, []string{
		conv.Name, fmt.Sprint(conv.Dim()), conv.Set.Upper.String(), "e1; e2",
		resConv.Mapping.Pi.String(), fmt.Sprint(resConv.Time), resConv.Conflict.Method, fmt.Sprint(resConv.Candidates),
	})

	mm := uda.BitLevelMatMul(2, 2)
	sMM := intmat.FromRows([]int64{1, 0, 0, 0, 0}, []int64{0, 1, 0, 0, 0})
	resMM, err := schedule.FindOptimal(mm, sMM, nil)
	if err != nil {
		return nil, err
	}
	tbl.Rows = append(tbl.Rows, []string{
		mm.Name, fmt.Sprint(mm.Dim()), mm.Set.Upper.String(), "e1; e2",
		resMM.Mapping.Pi.String(), fmt.Sprint(resMM.Time), resMM.Conflict.Method, fmt.Sprint(resMM.Candidates),
	})
	a.Tables = append(a.Tables, tbl)
	a.Notes = append(a.Notes, "the 5-D case runs in the k = n−2 regime of Theorem 4.7 — the configuration the paper reports using for its follow-up bit-level matmul design.")

	// Functional validation: real bit-serial arithmetic through the
	// winning mapping (carries chain along the (0,0,0,1,−1) dependence).
	opA := [][]int64{{7, 2, 5}, {1, 6, 3}, {4, 0, 7}}
	opB := [][]int64{{3, 5, 1}, {7, 2, 0}, {6, 4, 2}}
	prog, err := systolic.NewBitMatMulProgram(2, 2, opA, opB)
	if err != nil {
		return nil, err
	}
	sim, err := systolic.New(resMM.Mapping, prog, nil)
	if err != nil {
		return nil, err
	}
	run, err := sim.Run()
	if err != nil {
		return nil, err
	}
	got := systolic.CollectBitMatMul(2, run.Outputs)
	want := systolic.MatMulReference(opA, opB)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return nil, fmt.Errorf("exp: bit-serial product mismatch at (%d,%d)", i, j)
			}
		}
	}
	a.Notes = append(a.Notes, fmt.Sprintf("bit-serial arithmetic verified on the winning mapping: 3-bit operands, %d computations in %d cycles, product equals the word-level reference.", run.Computations, run.Cycles))
	return a, nil
}

// Gap exhibits the Theorem 4.7 necessity counterexample (X6).
func Gap() (*Artifact, error) {
	a := &Artifact{ID: "gap", Title: "Theorem 4.7 necessity gap — conflict-free matrix failing condition (1)"}
	T := intmat.FromRows(
		[]int64{1, 0, -10, 2},
		[]int64{0, 1, 2, -10},
	)
	set := uda.Box(5, 5, 5, 5)
	an, err := conflict.Analyze(T, set)
	if err != nil {
		return nil, err
	}
	res, err := conflict.Decide(T, set)
	if err != nil {
		return nil, err
	}
	free := res.ConflictFree
	bfFree, _ := conflict.BruteForce(T, set)
	a.Figures = append(a.Figures, fmt.Sprintf("T:\n%v\nμ = %v\nnull basis: %v", T, set.Upper, an.NullBasis()))
	a.Tables = append(a.Tables, Table{Columns: []string{"check", "result"}, Rows: [][]string{
		{"Theorem 4.7 conditions hold", fmt.Sprint(an.Theorem47())},
		{"exact decision: conflict-free", fmt.Sprint(free)},
		{"brute force: conflict-free", fmt.Sprint(bfFree)},
	}})
	a.Notes = append(a.Notes,
		"the matrix is conflict-free although Theorem 4.7's condition (1) fails: the same-sign requirement on a certifying row is not necessary when mixed-sign rows jointly exclude every small combination. lodim therefore treats Theorems 4.7/4.8 as sufficient certificates with an exact fallback.")
	if !free || !bfFree || an.Theorem47() {
		return nil, fmt.Errorf("exp: gap counterexample no longer holds")
	}
	return a, nil
}

// Space runs the Section 6 future-work problems (X7).
func Space() (*Artifact, error) {
	a := &Artifact{ID: "space", Title: "Problems 6.1/6.2 — space-optimal and joint mappings (paper future work)"}
	algo := uda.MatMul(4)
	pi := intmat.Vec(1, 4, 1)
	sres, err := schedule.FindSpaceMapping(algo, pi, 1, nil)
	if err != nil {
		return nil, err
	}
	a.Tables = append(a.Tables, Table{
		Title:   "Problem 6.1: matmul μ=4, Π = [1 4 1] fixed",
		Columns: []string{"space mapping", "processors", "wire", "t"},
		Rows: [][]string{
			{sres.Mapping.S.Row(0).String() + " (search)", fmt.Sprint(sres.Processors), fmt.Sprint(sres.WireLength), fmt.Sprint(sres.Time)},
			{"[1 1 -1] (paper)", "13", "3", "25"},
		},
	})
	tbl := Table{Title: "Problem 6.2: joint S and Π", Columns: []string{"algorithm", "joint t", "fixed-S paper optimum", "S", "Π", "PEs"}}
	for _, c := range []struct {
		algo *uda.Algorithm
		base int64
	}{
		{uda.MatMul(4), 25},
		{uda.TransitiveClosure(4), 29},
	} {
		jres, err := schedule.FindJointMapping(c.algo, 1, nil)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			c.algo.Name, fmt.Sprint(jres.Time), fmt.Sprint(c.base),
			jres.Mapping.S.Row(0).String(), jres.Mapping.Pi.String(), fmt.Sprint(jres.Processors),
		})
	}
	a.Tables = append(a.Tables, tbl)
	a.Notes = append(a.Notes, "for the transitive closure the joint search strictly beats the paper's fixed-S optimum — Example 5.2's S = [0,0,1] is not time-optimal among linear arrays; both winners are verified conflict-free by brute force in the test suite.")
	return a, nil
}
