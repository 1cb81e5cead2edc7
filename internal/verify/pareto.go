package verify

import (
	"context"
	"fmt"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// This file turns the verifier into a Pareto-optimality checker: given
// a claimed front over the four objective axes (total time, processor
// count, buffer depth, link count), it independently re-certifies
// every member mapping, recomputes each member's objective vector
// from first principles, and checks the two front-level invariants —
// pairwise non-domination (with distinct vectors) and the pinned
// deterministic order. Per the package's independence principle it
// shares no code with internal/schedule: dominance, the objective
// arithmetic, and the processor count are re-derived here.

// Witness names of the Pareto-front checks, in the order they run.
const (
	// WitnessParetoMember: a member's own certificate (validity,
	// conflict-freedom) was rejected.
	WitnessParetoMember = "pareto-member"
	// WitnessObjective: a member's claimed objective vector disagrees
	// with the independent recomputation.
	WitnessObjective = "objective-recompute"
	// WitnessWindow: a member's total time exceeds the claimed window.
	WitnessWindow = "time-window"
	// WitnessDomination: two members dominate or duplicate each other.
	WitnessDomination = "non-domination"
	// WitnessFrontOrder: the front is not in the pinned total order.
	WitnessFrontOrder = "front-order"
)

// ParetoAxes is the number of objective axes. Axis order is pinned:
// time, processors, buffers, links.
const ParetoAxes = 4

// ParetoInput is one claimed front member: the mapping and its
// objective vector as the search engine reported them.
type ParetoInput struct {
	S      *intmat.Matrix
	Pi     intmat.Vector
	Vector [ParetoAxes]int64
}

// ParetoMemberCertificate is the per-member evidence.
type ParetoMemberCertificate struct {
	// Certificate is the member's full independent certificate
	// (schedule validity, conflict-freedom, cross-checks).
	Certificate *Certificate `json:"certificate"`
	// Recomputed is the independently derived objective vector. When
	// ProcessorsChecked is false the processor axis echoes the claim
	// (the index set exceeded processorImageLimit) and the
	// certificate says so rather than failing.
	Recomputed        [ParetoAxes]int64 `json:"recomputed"`
	ProcessorsChecked bool              `json:"processors_checked"`
}

// ParetoCertificate is the front-level verdict.
type ParetoCertificate struct {
	// Valid is the overall verdict; on failure FailedMember (−1 for a
	// front-level check), FailedWitness and FailedDetail identify the
	// first rejected evidence.
	Valid         bool   `json:"valid"`
	FailedMember  int    `json:"failed_member"`
	FailedWitness string `json:"failed_witness,omitempty"`
	FailedDetail  string `json:"failed_detail,omitempty"`

	Members []ParetoMemberCertificate `json:"members"`
	// NonDomination and OrderChecked report the two front-level
	// invariants: every pair of recomputed vectors mutually
	// non-dominated and distinct, and the members sorted by the pinned
	// total order (vector, then Π, then S rows).
	NonDomination bool `json:"non_domination"`
	OrderChecked  bool `json:"order_checked"`
	// TimeBound echoes the claimed window ceiling the members were
	// checked against.
	TimeBound int64 `json:"time_bound"`
}

// Err returns nil for a valid certificate and the failure otherwise.
func (c *ParetoCertificate) Err() error {
	if c.Valid {
		return nil
	}
	return &FailureError{Witness: c.FailedWitness, Detail: c.FailedDetail}
}

func (c *ParetoCertificate) fail(member int, witness, format string, args ...any) {
	c.Valid = false
	if c.FailedWitness == "" {
		c.FailedMember = member
		c.FailedWitness = witness
		c.FailedDetail = fmt.Sprintf(format, args...)
	}
}

// CertifyPareto checks a claimed Pareto front member by member and as
// a whole. A non-nil error reports an infrastructure failure
// (cancellation, malformed algorithm, int64 overflow); every analytical
// rejection is delivered through the certificate instead.
func CertifyPareto(ctx context.Context, algo *uda.Algorithm, members []ParetoInput, timeBound int64, opts *Options) (_ *ParetoCertificate, err error) {
	defer intmat.Guard(&err)
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	cert := &ParetoCertificate{Valid: true, FailedMember: -1, TimeBound: timeBound}
	if len(members) == 0 {
		cert.fail(-1, WitnessParetoMember, "claimed front is empty")
		return cert, nil
	}
	vectors := make([][ParetoAxes]int64, len(members))
	for i := range members {
		m := &members[i]
		mc, err := CertifyContext(ctx, algo, m.S, m.Pi, opts)
		if err != nil {
			return nil, fmt.Errorf("verify: pareto member %d: %w", i, err)
		}
		rec := ParetoMemberCertificate{Certificate: mc}
		if !mc.Valid || !mc.ConflictFree {
			cert.fail(i, WitnessParetoMember, "member rejected: %s (%s)", mc.FailedWitness, mc.FailedDetail)
			cert.Members = append(cert.Members, rec)
			vectors[i] = m.Vector
			continue
		}
		rec.Recomputed, rec.ProcessorsChecked = recomputeObjectives(algo, m)
		cert.Members = append(cert.Members, rec)
		vectors[i] = rec.Recomputed
		if rec.Recomputed != m.Vector {
			cert.fail(i, WitnessObjective, "claimed objective vector %v, recomputed %v", m.Vector, rec.Recomputed)
		}
		if rec.Recomputed[0] > timeBound {
			cert.fail(i, WitnessWindow, "member time %d exceeds the claimed window %d", rec.Recomputed[0], timeBound)
		}
	}
	cert.NonDomination = true
	for i := range vectors {
		for j := i + 1; j < len(vectors); j++ {
			switch {
			case vectors[i] == vectors[j]:
				cert.NonDomination = false
				cert.fail(-1, WitnessDomination, "members %d and %d share the objective vector %v", i, j, vectors[i])
			case paretoDominates(vectors[i], vectors[j]):
				cert.NonDomination = false
				cert.fail(-1, WitnessDomination, "member %d %v dominates member %d %v", i, vectors[i], j, vectors[j])
			case paretoDominates(vectors[j], vectors[i]):
				cert.NonDomination = false
				cert.fail(-1, WitnessDomination, "member %d %v dominates member %d %v", j, vectors[j], i, vectors[i])
			}
		}
	}
	cert.OrderChecked = true
	for i := 1; i < len(members); i++ {
		if !paretoInputLess(vectors[i-1], &members[i-1], vectors[i], &members[i]) {
			cert.OrderChecked = false
			cert.fail(-1, WitnessFrontOrder, "members %d and %d violate the pinned front order", i-1, i)
		}
	}
	return cert, nil
}

// paretoDominates is the strict Pareto order: ≤ on every axis, < on at
// least one.
func paretoDominates(a, b [ParetoAxes]int64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// paretoInputLess re-derives the pinned total front order: objective
// vector lexicographically, then the Π key, then the S rows.
func paretoInputLess(va [ParetoAxes]int64, a *ParetoInput, vb [ParetoAxes]int64, b *ParetoInput) bool {
	if va != vb {
		for i := range va {
			if va[i] != vb[i] {
				return va[i] < vb[i]
			}
		}
	}
	if c := compareVectors(a.Pi, b.Pi); c != 0 {
		return c < 0
	}
	for r := 0; r < a.S.Rows() && r < b.S.Rows(); r++ {
		if c := compareVectors(a.S.Row(r), b.S.Row(r)); c != 0 {
			return c < 0
		}
	}
	return a.S.Rows() < b.S.Rows()
}

func compareVectors(a, b intmat.Vector) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return len(a) - len(b)
}

// recomputeObjectives derives the member's objective vector from first
// principles: total time from Equation 4.2's closed form, buffer depth
// as Σ (Π·d̄_k − 1), links as the distinct non-zero columns of S·D, and
// the processor count |S(J)| by direct image enumeration when |J| is at
// most processorImageLimit (otherwise the claim is echoed and flagged
// unchecked — consistent with the size-gated brute-force witnesses).
func recomputeObjectives(algo *uda.Algorithm, m *ParetoInput) ([ParetoAxes]int64, bool) {
	var v [ParetoAxes]int64
	v[0] = totalTime(m.Pi, algo.Set.Upper)
	for k := 0; k < algo.NumDeps(); k++ {
		v[2] += m.Pi.Dot(algo.Dep(k)) - 1
	}
	sd := m.S.Mul(algo.D)
	links := make(map[string]struct{}, sd.Cols())
	for c := 0; c < sd.Cols(); c++ {
		col := sd.Col(c)
		zero := true
		for _, x := range col {
			if x != 0 {
				zero = false
				break
			}
		}
		if !zero {
			links[col.String()] = struct{}{}
		}
	}
	v[3] = int64(len(links))
	if procs, ok := processorImageCount(m.S, algo.Set); ok {
		v[1] = procs
		return v, true
	}
	v[1] = m.Vector[1]
	return v, false
}

// processorImageLimit is the |J| ceiling of the direct processor count.
const processorImageLimit = 5_000_000

// processorImageCount enumerates |S(J)| directly; false when |J|
// exceeds processorImageLimit.
func processorImageCount(s *intmat.Matrix, set uda.IndexSet) (int64, bool) {
	if set.SizeExceeds(processorImageLimit) {
		return 0, false
	}
	rows := make([]intmat.Vector, s.Rows())
	for r := range rows {
		rows[r] = s.Row(r)
	}
	seen := make(map[string]struct{}, 1024)
	img := make(intmat.Vector, len(rows))
	set.Each(func(j intmat.Vector) bool {
		for r, row := range rows {
			img[r] = row.Dot(j)
		}
		seen[img.String()] = struct{}{}
		return true
	})
	return int64(len(seen)), true
}
