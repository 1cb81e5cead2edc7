package verify

import (
	"fmt"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// Check re-validates a certificate against the mapping it claims to
// certify: every witness is recomputed from the certificate's own data
// with elementary arithmetic (dot products, absolute-value bounds,
// null-space membership), so a certificate that was tampered with — or
// produced for a different mapping — is rejected without re-running
// the engine. A nil return means the certificate's witnesses genuinely
// prove what the certificate claims.
//
// Check deliberately does not re-derive the HNF or re-search the
// lattice: the witnesses are designed so their *consequences* are
// cheap to confirm even though finding them is not. (The exception is
// exhaustiveness of the conflict-free verdict in codimension ≥ 2,
// which only a re-run of Certify can re-establish.)
func (c *Certificate) Check(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector) error {
	if algo == nil {
		return fmt.Errorf("verify: check: nil algorithm")
	}
	n := algo.Dim()
	if s == nil {
		s = intmat.New(0, n)
	}
	// The certificate must describe this mapping, not some other one.
	if c.N != n {
		return fmt.Errorf("verify: check: certificate is for dimension %d, mapping has %d", c.N, n)
	}
	if !intmat.Vector(c.Mu).Equal(algo.Set.Upper) {
		return fmt.Errorf("verify: check: certificate bounds %v != algorithm bounds %v", c.Mu, algo.Set.Upper)
	}
	if !intmat.Vector(c.Pi).Equal(pi) {
		return fmt.Errorf("verify: check: certificate Π %v != mapping Π %v", c.Pi, pi)
	}
	if len(c.S) != s.Rows() {
		return fmt.Errorf("verify: check: certificate S has %d rows, mapping S has %d", len(c.S), s.Rows())
	}
	for i, row := range c.S {
		if !intmat.Vector(row).Equal(s.Row(i)) {
			return fmt.Errorf("verify: check: certificate S row %d = %v != mapping row %v", i, row, s.Row(i))
		}
	}
	t := s.AppendRow(pi)
	if c.K != t.Rows() {
		return fmt.Errorf("verify: check: certificate k = %d, mapping has %d rows", c.K, t.Rows())
	}

	// Schedule witnesses: one per dependence column, dot products exact.
	if len(c.Schedule) != algo.NumDeps() {
		return fmt.Errorf("verify: check: %d schedule witnesses for %d dependencies", len(c.Schedule), algo.NumDeps())
	}
	for j, w := range c.Schedule {
		dep := algo.Dep(j)
		if !intmat.Vector(w.Dep).Equal(dep) {
			return fmt.Errorf("verify: check: schedule witness %d records dependence %v, algorithm has %v", j, w.Dep, dep)
		}
		if got := pi.Dot(dep); got != w.Dot {
			return fmt.Errorf("verify: check: schedule witness %d records Π·d̄ = %d, recomputed %d", j, w.Dot, got)
		}
		if w.OK != (w.Dot >= 1) {
			return fmt.Errorf("verify: check: schedule witness %d flags OK=%v for dot %d", j, w.OK, w.Dot)
		}
		if !w.OK && c.Valid {
			return fmt.Errorf("verify: check: certificate is valid despite failing schedule witness %d", j)
		}
	}
	if got := totalTime(pi, algo.Set.Upper); got != c.TotalTime {
		return fmt.Errorf("verify: check: total time %d, recomputed %d", c.TotalTime, got)
	}

	// Basis witnesses: each γ must be a non-zero null vector of T, and
	// the recorded feasible index must genuinely exceed its bound.
	for bi, bw := range c.Basis {
		gamma := intmat.Vector(bw.Gamma)
		if len(gamma) != n {
			return fmt.Errorf("verify: check: basis witness %d has dimension %d, want %d", bi, len(gamma), n)
		}
		if gamma.IsZero() {
			return fmt.Errorf("verify: check: basis witness %d is the zero vector", bi)
		}
		for r := 0; r < t.Rows(); r++ {
			if t.Row(r).Dot(gamma) != 0 {
				return fmt.Errorf("verify: check: basis witness %d: T·γ ≠ 0 at row %d", bi, r)
			}
		}
		if bw.FeasibleIndex >= 0 {
			i := bw.FeasibleIndex
			if i >= n {
				return fmt.Errorf("verify: check: basis witness %d: feasible index %d out of range", bi, i)
			}
			if abs64(gamma[i]) <= algo.Set.Upper[i] {
				return fmt.Errorf("verify: check: basis witness %d: |γ_%d| = %d does not exceed μ_%d = %d",
					bi, i+1, abs64(gamma[i]), i+1, algo.Set.Upper[i])
			}
			if want := abs64(gamma[i]) - algo.Set.Upper[i]; bw.Excess != want {
				return fmt.Errorf("verify: check: basis witness %d: excess %d, recomputed %d", bi, bw.Excess, want)
			}
		} else if c.Valid {
			return fmt.Errorf("verify: check: certificate is valid despite infeasible basis vector %v", gamma)
		}
	}

	// A claimed conflict must be a genuine one: non-zero, in null(T),
	// every coordinate within its bound.
	if c.ConflictWitness != nil {
		w := intmat.Vector(c.ConflictWitness)
		if c.ConflictFree {
			return fmt.Errorf("verify: check: conflict-free certificate carries conflict witness %v", w)
		}
		if len(w) != n || w.IsZero() {
			return fmt.Errorf("verify: check: malformed conflict witness %v", w)
		}
		for r := 0; r < t.Rows(); r++ {
			if t.Row(r).Dot(w) != 0 {
				return fmt.Errorf("verify: check: conflict witness %v is not in null(T)", w)
			}
		}
		for i, g := range w {
			if abs64(g) > algo.Set.Upper[i] {
				return fmt.Errorf("verify: check: conflict witness %v exceeds bound at axis %d — it is no conflict", w, i+1)
			}
		}
	}
	if !c.ConflictFree && c.ConflictWitness == nil && c.FailedWitness == WitnessConflict {
		return fmt.Errorf("verify: check: conflict verdict without a witness")
	}
	if !c.ConflictFree && c.Valid {
		return fmt.Errorf("verify: check: certificate is valid despite a conflict")
	}
	if c.BruteForce != nil && c.BruteForce.Ran && !c.BruteForce.Agrees && c.Valid {
		return fmt.Errorf("verify: check: certificate is valid despite brute-force disagreement")
	}
	if c.Simulation != nil && c.Simulation.Ran && !c.Simulation.Agrees && c.Valid {
		return fmt.Errorf("verify: check: certificate is valid despite simulation disagreement")
	}

	// Optimality consistency: a bound above the achieved time is no
	// lower bound, and Optimal requires exact equality.
	if c.Optimality != "" {
		if c.LowerBound > c.TotalTime {
			return fmt.Errorf("verify: check: lower bound %d exceeds total time %d", c.LowerBound, c.TotalTime)
		}
		switch c.Optimality {
		case Optimal:
			if c.LowerBound != c.TotalTime {
				return fmt.Errorf("verify: check: Optimal verdict with bound %d < time %d", c.LowerBound, c.TotalTime)
			}
		case FeasibleOnly:
			// Nothing further: the bound is valid but not tight.
		default:
			return fmt.Errorf("verify: check: unknown optimality verdict %q", c.Optimality)
		}
	}
	if c.Valid && c.FailedWitness != "" {
		return fmt.Errorf("verify: check: valid certificate names failed witness %q", c.FailedWitness)
	}
	if !c.Valid && c.FailedWitness == "" {
		return fmt.Errorf("verify: check: invalid certificate without a failed witness")
	}
	return nil
}
