// Package schedule implements linear schedules and the two
// time-optimal, conflict-free mapping optimizers of Shang & Fortes
// (1990), Section 5:
//
//   - Procedure 5.1 — enumeration of candidate schedule vectors Π in
//     increasing total-execution-time order, testing the exact
//     conflict-freeness conditions on each candidate; and
//   - the integer-programming formulation (5.1)–(5.2) for mappings
//     T ∈ Z^{(n−1)×n}, built on the linearity of the conflict-vector
//     entries in Π (Proposition 3.2) and solved by disjunctive
//     decomposition exactly as in the paper's appendix.
//
// Both optimizers minimize the total execution time of Equation 2.7,
//
//	t = 1 + Σ |π_i|·μ_i,
//
// subject to ΠD > 0 (dependencies respected), rank(T) = k, T
// conflict-free, and — when a target machine is given — the
// realizability condition SD = PK with Σ_l k_li ≤ Π·d̄_i.
package schedule

import (
	"errors"
	"fmt"

	"lodim/internal/array"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/trace"
	"lodim/internal/uda"
)

// Valid reports whether Π respects every dependence: ΠD > 0
// (condition 1 of Definition 2.2).
func Valid(pi intmat.Vector, d *intmat.Matrix) bool {
	if len(pi) != d.Rows() {
		panic(fmt.Sprintf("schedule: Π has %d entries, D has %d rows", len(pi), d.Rows()))
	}
	for i := 0; i < d.Cols(); i++ {
		if pi.Dot(d.Col(i)) <= 0 {
			return false
		}
	}
	return true
}

// TotalTime returns the total execution time of Equation 2.7:
// t = 1 + Σ|π_i|·μ_i. The sum is computed with checked arithmetic: a Π
// and μ whose product exceeds int64 used to wrap to a negative total
// time that silently *won* incumbent-time comparisons; now the overflow
// panics with *intmat.OverflowError. Callers handling untrusted Π
// should use TotalTimeChecked, which converts the panic to an error.
func TotalTime(pi intmat.Vector, set uda.IndexSet) int64 {
	if len(pi) != set.Dim() {
		panic(fmt.Sprintf("schedule: Π has %d entries, index set dimension is %d", len(pi), set.Dim()))
	}
	t := int64(1)
	for i, p := range pi {
		t = intmat.AddChecked(t, intmat.MulChecked(intmat.AbsChecked(p), set.Upper[i]))
	}
	return t
}

// TotalTimeChecked is TotalTime with the overflow panic converted to an
// error under intmat.Guard.
func TotalTimeChecked(pi intmat.Vector, set uda.IndexSet) (t int64, err error) {
	defer intmat.Guard(&err)
	return TotalTime(pi, set), nil
}

// Cost returns the objective f = t − 1 = Σ|π_i|·μ_i of Problem 2.2. It
// shares TotalTime's checked arithmetic (and its overflow panic).
func Cost(pi intmat.Vector, set uda.IndexSet) int64 { return TotalTime(pi, set) - 1 }

// Mapping is a complete, validated space-time mapping T = [S; Π] of an
// algorithm.
type Mapping struct {
	Algo *uda.Algorithm
	S    *intmat.Matrix // (k−1)×n space mapping
	Pi   intmat.Vector  // 1×n linear schedule
	T    *intmat.Matrix // [S; Π]
}

// NewMapping assembles and validates a mapping: shape consistency,
// ΠD > 0 and rank(T) = k. Conflict-freeness is not required here — the
// simulator deliberately accepts conflicting mappings so the conflicts
// can be observed; use Check for the full verdict.
func NewMapping(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector) (*Mapping, error) {
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	n := algo.Dim()
	if s.Cols() != n {
		return nil, fmt.Errorf("schedule: S has %d columns, algorithm dimension is %d", s.Cols(), n)
	}
	if len(pi) != n {
		return nil, fmt.Errorf("schedule: Π has %d entries, algorithm dimension is %d", len(pi), n)
	}
	if !Valid(pi, algo.D) {
		return nil, fmt.Errorf("schedule: ΠD > 0 violated for Π = %v", pi)
	}
	t := s.AppendRow(pi)
	if t.Rank() != t.Rows() {
		return nil, fmt.Errorf("schedule: rank(T) = %d < k = %d", t.Rank(), t.Rows())
	}
	return &Mapping{Algo: algo, S: s, Pi: pi, T: t}, nil
}

// K returns the number of rows of T.
func (m *Mapping) K() int { return m.T.Rows() }

// Processor returns S·j̄, the array coordinates executing point j̄.
func (m *Mapping) Processor(j intmat.Vector) intmat.Vector { return m.S.MulVec(j) }

// Time returns Π·j̄, the execution time of point j̄.
func (m *Mapping) Time(j intmat.Vector) int64 { return m.Pi.Dot(j) }

// TotalTime returns the schedule's total execution time over the
// algorithm's index set.
func (m *Mapping) TotalTime() int64 { return TotalTime(m.Pi, m.Algo.Set) }

// TotalTimeChecked is the method form of the package-level
// TotalTimeChecked: the overflow panic becomes an error.
func (m *Mapping) TotalTimeChecked() (int64, error) {
	return TotalTimeChecked(m.Pi, m.Algo.Set)
}

// Check decides conflict-freeness of the mapping.
func (m *Mapping) Check() (conflict.Result, error) {
	return conflict.Decide(m.T, m.Algo.Set)
}

// Options configures the optimizers.
type Options struct {
	// Machine, when non-nil, adds realizability condition 2 of
	// Definition 2.2 (SD = PK within the schedule slack).
	Machine *array.Machine
	// MaxCost caps the objective Σ|π_i|·μ_i explored by the
	// enumeration; 0 selects a generous default.
	MaxCost int64
	// MinCost starts the enumeration above a known lower bound
	// (used by the ILP fallback); 0 starts at 1.
	MinCost int64
	// RequireSingleHop additionally rejects designs whose machine
	// decomposition uses more than one primitive hop for any transfer —
	// the structural guarantee of link-collision freedom from the
	// paper's appendix (and condition 5 of its reference [23]). Only
	// meaningful together with Machine.
	RequireSingleHop bool
	// Workers sets the number of goroutines that split the space
	// mappings of a joint, Pareto or Problem 6.1 search (0 or 1 =
	// sequential); the result is the same at any count. FindOptimal
	// searches its one S on the calling goroutine: most candidate tests
	// take tens of nanoseconds, and splitting one level's passers paid
	// off only on searches testing hundreds of millions of Π.
	Workers int
	// MinimizeBuffers breaks ties among time-optimal schedules by the
	// total buffer count of the machine realization (the paper's
	// secondary design criterion in Example 5.1: "the systolic array
	// designed in this paper only needs three buffers"). Requires
	// Machine; within equal time and buffers the enumeration order
	// still decides.
	MinimizeBuffers bool
	// SelfCheck certifies the winning mapping through the independent
	// verification engine before returning it; a certificate failure
	// surfaces as an error instead of a wrong answer. The checker is
	// registered by importing lodim/internal/verify (the mapping facade
	// and internal/service do so); with no checker registered, a search
	// with SelfCheck set fails rather than silently skipping the check.
	SelfCheck bool
}

// Result is an optimizer's answer.
type Result struct {
	Mapping *Mapping
	// Time is the total execution time 1 + Σ|π_i|μ_i.
	Time int64
	// Conflict is the certificate for the winning schedule.
	Conflict conflict.Result
	// Decomp is the machine realization when a machine was given.
	Decomp *array.Decomposition
	// Candidates counts the schedule vectors Procedure 5.1 tested for
	// conflicts — the Π passing ΠD ≥ 1 up to and including the winner,
	// or through the winner's whole level under MinimizeBuffers — or
	// the branch-and-bound nodes (ILP); an effort metric for the
	// formulation-versus-enumeration ablation.
	Candidates int
	// Method names the engine: "procedure-5.1" or "ilp".
	Method string
	// Stats carries the structured search statistics collected during
	// the run (candidate counts per pruning rule, phase wall times).
	// Nil when the engine predates stats collection (ILP fallback).
	Stats *SearchStats
	// Trace references the span trace recorded for this search when the
	// caller's context carried an active trace span (see internal/trace);
	// nil when tracing is off. The summary names the trace so the full
	// span tree can be found in the /debug/requests inspector or a
	// -trace-dir export.
	Trace *trace.Summary
}

// ErrNoSchedule reports that no feasible conflict-free schedule exists
// within the explored cost range.
var ErrNoSchedule = errors.New("schedule: no conflict-free schedule found within cost bound")

func (r *Result) String() string {
	return fmt.Sprintf("Π = %v, t = %d (%s, %d candidates)", r.Mapping.Pi, r.Time, r.Method, r.Candidates)
}
