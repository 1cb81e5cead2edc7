package schedule

import (
	"fmt"

	"lodim/internal/conflict"
	"lodim/internal/ilp"
	"lodim/internal/intmat"
	"lodim/internal/lp"
	"lodim/internal/rat"
	"lodim/internal/uda"
)

// FindOptimalILP solves Problem 2.2 for mappings T ∈ Z^{(n−1)×n} via
// the integer-programming formulation (5.1)–(5.2):
//
//	min Σ μ_i·|π_i|
//	s.t. ΠD ≥ 1                          (dependencies, integral form)
//	     ∃i: |f_i(π_1, …, π_n)| ≥ μ_i+1  (conflict-freeness, Thm 3.1/2.2)
//	     Π·d̄_i ≥ hops_i                  (machine realizability, opt.)
//	     Π ∈ Z^{1×n}
//
// The f_i are the conflict-vector entries of Equation 3.2; Proposition
// 3.2 shows they are linear in Π once S is fixed, and the coefficients
// are extracted here by evaluating the signed maximal minors at the
// unit vectors Π = e_j. The non-convex disjunction is decomposed into
// 2n convex branches (f_i ≥ μ_i+1 and −f_i ≥ μ_i+1) exactly as the
// paper's appendix does for Examples 5.1 and 5.2; |π_i| is linearized
// with auxiliary variables a_i ≥ ±π_i.
//
// The formulation ignores the gcd normalization of conflict vectors
// (the paper does the same, then checks: "this constraint is ignored
// and the resulting conflict vector is checked to see if it is
// feasible"). Accordingly the ILP optimum is a lower bound; the
// returned schedule is verified with the exact conflict decision and,
// in the rare case the verification fails, the optimizer falls back to
// Procedure 5.1 starting at the ILP objective — preserving optimality.
func FindOptimalILP(algo *uda.Algorithm, s *intmat.Matrix, opts *Options) (_ *Result, err error) {
	defer intmat.Guard(&err)
	if opts == nil {
		opts = &Options{}
	}
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	base, disjuncts, integer, err := ilpFormulation(algo, s, opts)
	if err != nil {
		return nil, err
	}
	sol, err := ilp.SolveDisjunctive(base, disjuncts, integer)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: ILP status %v", ErrNoSchedule, sol.Status)
	}
	pi, err := ilpSchedule(sol, algo.Dim())
	if err != nil {
		return nil, err
	}
	// Exact verification (the gcd caveat): accept only if the true
	// conflict decision agrees; otherwise fall back to enumeration from
	// the ILP bound, which remains optimal.
	if r, ok, err := verifyILP(algo, s, opts, pi); err != nil {
		return nil, err
	} else if ok {
		r.Candidates = sol.Nodes
		r.Method = "ilp"
		return r, nil
	}
	bound, ok := sol.Objective.Int64()
	if !ok {
		bound = sol.Objective.Ceil()
	}
	fb, err := FindOptimal(algo, s, &Options{Machine: opts.Machine, MaxCost: opts.MaxCost, MinCost: bound})
	if err != nil {
		return nil, err
	}
	fb.Method = "ilp+fallback"
	return fb, nil
}

// verifyILP applies Procedure 5.1's step-5 tests to an ILP witness Π.
// A failure of the tests other than a rejection is returned as err.
func verifyILP(algo *uda.Algorithm, s *intmat.Matrix, opts *Options, pi intmat.Vector) (*Result, bool, error) {
	analyzer, err := conflict.NewSpaceAnalyzer(s, algo.Set)
	if err != nil {
		return nil, false, err
	}
	if !Valid(pi, algo.D) {
		return nil, false, nil
	}
	sc := conflict.GetScratch()
	defer conflict.PutScratch(sc)
	var errs firstErr
	p, ok := step5(algo, opts, analyzer, sc, &sc.Memo, &errs, pi)
	if !ok {
		return nil, false, errs.takeErr()
	}
	return p.result(algo, s, pi), true, nil
}

// ilpFormulation builds the constraint system of (5.1)–(5.2) under the
// objective min Σ μ_i·a_i.
func ilpFormulation(algo *uda.Algorithm, s *intmat.Matrix, opts *Options) (*lp.Problem, [][]lp.Constraint, []bool, error) {
	n := algo.Dim()
	if s.Cols() != n || s.Rows() != n-2 {
		return nil, nil, nil, fmt.Errorf("schedule: ILP formulation needs S ∈ Z^{(n-2)×n}, got %dx%d for n = %d", s.Rows(), s.Cols(), n)
	}
	coeff, err := conflictFormCoefficients(s)
	if err != nil {
		return nil, nil, nil, err
	}

	// Variables: π_1..π_n (integral, free), a_1..a_n (≥ 0, a_i ≥ |π_i|).
	numVars := 2 * n
	c := make([]rat.Rat, numVars)
	lower := make([]lp.Bound, numVars)
	for i := 0; i < n; i++ {
		c[n+i] = rat.FromInt(algo.Set.Upper[i])
		lower[n+i] = lp.BoundAt(rat.Zero())
	}
	base := &lp.Problem{NumVars: numVars, C: c, Lower: lower}

	// a_i ≥ π_i and a_i ≥ −π_i.
	for i := 0; i < n; i++ {
		row1 := make([]rat.Rat, numVars)
		row1[n+i] = rat.One()
		row1[i] = rat.One().Neg()
		base.Constraints = append(base.Constraints, lp.Constraint{Coeffs: row1, Op: lp.GE, RHS: rat.Zero(), Name: fmt.Sprintf("abs+%d", i)})
		row2 := make([]rat.Rat, numVars)
		row2[n+i] = rat.One()
		row2[i] = rat.One()
		base.Constraints = append(base.Constraints, lp.Constraint{Coeffs: row2, Op: lp.GE, RHS: rat.Zero(), Name: fmt.Sprintf("abs-%d", i)})
	}
	// ΠD ≥ 1 per dependence; with the machine option, Π·d̄_i ≥ max(1, hops_i).
	hops := make([]int64, algo.NumDeps())
	if opts.Machine != nil {
		hops, err = opts.Machine.MinHops(s, algo.D)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i < algo.NumDeps(); i++ {
		d := algo.Dep(i)
		row := make([]rat.Rat, numVars)
		for j := 0; j < n; j++ {
			row[j] = rat.FromInt(d[j])
		}
		rhs := int64(1)
		if hops[i] > rhs {
			rhs = hops[i]
		}
		base.Constraints = append(base.Constraints, lp.Constraint{Coeffs: row, Op: lp.GE, RHS: rat.FromInt(rhs), Name: fmt.Sprintf("dep%d", i)})
	}
	// Disjunction: for each i, f_i(π) ≥ μ_i+1 or −f_i(π) ≥ μ_i+1.
	var disjuncts [][]lp.Constraint
	for i := 0; i < n; i++ {
		pos := make([]rat.Rat, numVars)
		neg := make([]rat.Rat, numVars)
		allZero := true
		for j := 0; j < n; j++ {
			pos[j] = rat.FromInt(coeff.At(i, j))
			neg[j] = rat.FromInt(-coeff.At(i, j))
			if coeff.At(i, j) != 0 {
				allZero = false
			}
		}
		if allZero {
			continue // f_i ≡ 0 can never certify feasibility
		}
		rhs := rat.FromInt(algo.Set.Upper[i] + 1)
		disjuncts = append(disjuncts,
			[]lp.Constraint{{Coeffs: pos, Op: lp.GE, RHS: rhs, Name: fmt.Sprintf("f%d+", i)}},
			[]lp.Constraint{{Coeffs: neg, Op: lp.GE, RHS: rhs, Name: fmt.Sprintf("f%d-", i)}},
		)
	}
	if len(disjuncts) == 0 {
		return nil, nil, nil, fmt.Errorf("schedule: every conflict form f_i is identically zero — S is rank deficient")
	}
	integer := make([]bool, numVars)
	for i := 0; i < n; i++ {
		integer[i] = true
	}
	return base, disjuncts, integer, nil
}

// ilpSchedule extracts the integral Π from a solved formulation.
func ilpSchedule(sol *ilp.Solution, n int) (intmat.Vector, error) {
	pi := make(intmat.Vector, n)
	for j := 0; j < n; j++ {
		v, ok := sol.X[j].Int64()
		if !ok {
			return nil, fmt.Errorf("schedule: ILP returned non-integral π_%d = %v", j+1, sol.X[j])
		}
		pi[j] = v
	}
	return pi, nil
}

// conflictFormCoefficients returns the n×n matrix F with
// f_i(π) = Σ_j F[i][j]·π_j, extracted by evaluating the signed maximal
// minors of [S; e_j] (linearity per Proposition 3.2).
func conflictFormCoefficients(s *intmat.Matrix) (*intmat.Matrix, error) {
	n := s.Cols()
	f := intmat.New(n, n)
	for j := 0; j < n; j++ {
		e := intmat.NewVector(n)
		e[j] = 1
		forms, err := conflict.LinearForms(s.AppendRow(e))
		if err != nil {
			return nil, err
		}
		f.SetCol(j, forms)
	}
	return f, nil
}
