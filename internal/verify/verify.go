// Package verify is the independent certification engine of lodim: it
// re-validates any space-time mapping (S, Π) of a uniform dependence
// algorithm from first principles and records *why* the mapping is
// correct as a machine-checkable Certificate.
//
// Independence is the point. The search engines (internal/schedule,
// internal/conflict's theorem ladder and factored SpaceAnalyzer) decide
// conflict-freeness with layered shortcuts — Theorem 3.1 closed forms,
// the sufficient conditions of Theorems 4.5–4.8, size-reduced cached
// null bases. This package shares none of those code paths. It derives
// everything again from a fresh Hermite factorization T·U = [L, 0]
// (Theorem 4.1), its own exact search of the null lattice, and — below
// a size cutoff — the definitional conflict.BruteForce ground truth. A
// bug in the search therefore cannot certify itself.
//
// The certificate carries four witness families:
//
//   - schedule validity: Π·d̄_j for every dependence column, each ≥ 1
//     (condition 1 of Definition 2.2);
//   - conflict-freeness: per HNF-derived null-basis vector γ, the axis
//     i with |γ_i| > μ_i (the Theorem 2.2 feasibility witness), plus an
//     exact search of the null lattice for an in-box vector when the
//     null space has dimension ≥ 2, plus the brute-force cross-check;
//   - time optimality: TotalTime(Π) against the best certified lower
//     bound over the ΠD > 0 cone (closed-form per-dependence bound,
//     exact cone minimum, dataflow critical path), flagging Optimal
//     versus FeasibleOnly;
//   - simulation (opt-in): a cycle-accurate replay through
//     internal/systolic asserting no PE executes two computations in
//     one step, in agreement with the algebraic verdict.
//
// For the same reason, this package stays on intmat's allocating API
// (HermiteNormalForm, SmithNormalForm, Mul, …) rather than the
// arena/scratch machinery the search engines use (DESIGN.md §11), so
// the referee works on fresh heap storage per call with no aliasing
// against a searcher's scratch state. Verification runs once per
// result; allocation here is noise.
//
// Every boundary that hands out a search result certifies it
// explicitly: mapfind -verify, the service's map and Pareto paths, the
// corpus replay and the mapping facade's Verify.
package verify

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/systolic"
	"lodim/internal/trace"
	"lodim/internal/uda"
)

// Witness names, used in FailureError.Witness and
// Certificate.FailedWitness so callers (and the acceptance tests) can
// tell exactly which proof obligation broke.
const (
	WitnessShape       = "shape"
	WitnessComposition = "composition"
	WitnessRank        = "rank"
	WitnessHNF         = "hnf-factorization"
	WitnessSchedule    = "schedule-validity"
	WitnessConflict    = "conflict-freeness"
	WitnessBrute       = "brute-force-agreement"
	WitnessSimulation  = "simulation-agreement"
)

// Optimality verdicts.
const (
	// Optimal: TotalTime(Π) equals a certified lower bound on every
	// valid schedule, so Π is time-optimal among all Π'D > 0 schedules
	// (conflict-free or not), hence among the conflict-free ones.
	Optimal = "optimal"
	// FeasibleOnly: the mapping is certified valid and conflict-free,
	// but a cheaper valid (possibly conflicting) schedule exists — or
	// the bound computation hit its budget — so time-optimality is not
	// certified. Conflict constraints can force the true conflict-free
	// optimum above every bound this package computes.
	FeasibleOnly = "feasible-only"
)

// Default resource bounds (overridable via Options).
const (
	// DefaultBruteForceLimit is the |J| ceiling below which the
	// definitional brute-force cross-check runs.
	DefaultBruteForceLimit = 1 << 14
	// DefaultSimulateLimit is the |J| ceiling for the opt-in
	// simulation witness.
	DefaultSimulateLimit = 1 << 14
	// DefaultOptimalityBudget bounds the schedule vectors enumerated
	// for the exact Π-cone lower bound.
	DefaultOptimalityBudget = 2_000_000
	// DefaultCriticalPathLimit is the |J| ceiling for the dataflow
	// critical-path lower bound (it enumerates the index set).
	DefaultCriticalPathLimit = 1 << 14
)

// Options tunes the certification; the zero value selects every
// default. All limits are resource bounds — they never change a
// verdict, only whether an optional witness is produced.
type Options struct {
	// BruteForceLimit is the |J| ceiling for the brute-force
	// cross-check (0 = DefaultBruteForceLimit, negative disables).
	BruteForceLimit int64
	// Simulate enables the systolic replay witness (bounded by
	// SimulateLimit; 0 = DefaultSimulateLimit).
	Simulate      bool
	SimulateLimit int64
	// SkipOptimality skips the lower-bound analysis; Optimality is
	// left empty. Callers certifying a search's winner set it: the
	// bound re-enumerates the Π cone the search just walked.
	SkipOptimality bool
	// OptimalityBudget bounds the candidates of the exact Π-cone
	// search (0 = DefaultOptimalityBudget).
	OptimalityBudget int64
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.BruteForceLimit == 0 {
		out.BruteForceLimit = DefaultBruteForceLimit
	}
	if out.SimulateLimit <= 0 {
		out.SimulateLimit = DefaultSimulateLimit
	}
	if out.OptimalityBudget <= 0 {
		out.OptimalityBudget = DefaultOptimalityBudget
	}
	return out
}

// FailureError names the witness that failed certification.
type FailureError struct {
	Witness string
	Detail  string
}

func (e *FailureError) Error() string {
	return fmt.Sprintf("verify: %s witness failed: %s", e.Witness, e.Detail)
}

// ScheduleWitness records Π·d̄ for one dependence column — the
// displayed form of condition ΠD > 0.
type ScheduleWitness struct {
	Dep []int64 `json:"dep"`
	Dot int64   `json:"dot"`
	OK  bool    `json:"ok"`
}

// BasisWitness is the Theorem 2.2 witness for one HNF-derived conflict
// vector: the axis index i with |γ_i| > μ_i proving γ cannot connect
// two points of the index box. FeasibleIndex is −1 when no such axis
// exists — then γ itself exhibits a conflict.
type BasisWitness struct {
	Gamma         []int64 `json:"gamma"`
	FeasibleIndex int     `json:"feasible_index"`
	Excess        int64   `json:"excess,omitempty"` // |γ_i| − μ_i at that axis
}

// HNFWitness records the fresh T·U = [L, 0] factorization: the
// positive diagonal of L proves rank(T) = k (Theorem 4.1), and Checked
// reports that T·U = H, U unimodular and the triangular shape were all
// re-verified.
type HNFWitness struct {
	LDiag   []int64 `json:"l_diag"`
	Checked bool    `json:"checked"`
}

// EnumerationWitness records the exact search of the null lattice for a
// non-zero γ with every |γ_i| ≤ μ_i (see searchLattice). The search
// writes γ = Σ β_t·c_t over a column-echelon basis c_t and walks β depth
// first, bounding each β_t by the box at its basis vector's pivot
// coordinate. Points counts the β_t values it tried, and BetaBounds[t]
// is the largest |β_t| among them. Both are empty for a null space of
// dimension ≤ 1, which the basis witnesses settle.
type EnumerationWitness struct {
	BetaBounds []int64 `json:"beta_bounds"`
	Points     int64   `json:"points_enumerated"`
}

// CrossCheck records the definitional brute-force comparison.
type CrossCheck struct {
	Ran     bool    `json:"ran"`
	Points  int64   `json:"points,omitempty"`
	Agrees  bool    `json:"agrees"`
	Witness []int64 `json:"witness,omitempty"`
}

// SimulationWitness records the opt-in systolic replay.
type SimulationWitness struct {
	Ran          bool  `json:"ran"`
	Cycles       int64 `json:"cycles,omitempty"`
	Computations int64 `json:"computations,omitempty"`
	Conflicts    int   `json:"conflicts"`
	MaxOccupancy int   `json:"max_occupancy,omitempty"`
	Agrees       bool  `json:"agrees"`
}

// Certificate is the full, self-describing verification record of one
// (S, Π) mapping. It is JSON-serializable end to end (mapfind -verify
// and POST /v1/verify emit it directly) and re-checkable offline via
// Check.
type Certificate struct {
	Algorithm string    `json:"algorithm,omitempty"`
	N         int       `json:"n"`
	K         int       `json:"k"`
	Mu        []int64   `json:"mu"`
	S         [][]int64 `json:"s"`
	Pi        []int64   `json:"pi"`

	Valid         bool   `json:"valid"`
	FailedWitness string `json:"failed_witness,omitempty"`
	FailedDetail  string `json:"failed_detail,omitempty"`

	Schedule        []ScheduleWitness   `json:"schedule_validity"`
	HNF             *HNFWitness         `json:"hnf,omitempty"`
	Basis           []BasisWitness      `json:"null_basis"`
	Enumeration     *EnumerationWitness `json:"enumeration,omitempty"`
	ConflictFree    bool                `json:"conflict_free"`
	ConflictWitness []int64             `json:"conflict_witness,omitempty"`
	BruteForce      *CrossCheck         `json:"brute_force,omitempty"`
	Simulation      *SimulationWitness  `json:"simulation,omitempty"`

	TotalTime      int64  `json:"total_time"`
	LowerBound     int64  `json:"lower_bound,omitempty"`
	LowerBoundKind string `json:"lower_bound_kind,omitempty"`
	Optimality     string `json:"optimality,omitempty"`
}

// Err returns nil for a valid certificate and the named failing
// witness otherwise.
func (c *Certificate) Err() error {
	if c.Valid {
		return nil
	}
	return &FailureError{Witness: c.FailedWitness, Detail: c.FailedDetail}
}

// fail records the first failing witness (later failures keep the
// first name, which identifies the root cause).
func (c *Certificate) fail(witness, format string, args ...any) {
	c.Valid = false
	if c.FailedWitness == "" {
		c.FailedWitness = witness
		c.FailedDetail = fmt.Sprintf(format, args...)
	}
}

// VerifyMapping certifies a pre-assembled mapping. Beyond Certify it
// also cross-checks the mapping's composed T field against [S; Π] — a
// Mapping built as a raw struct literal can carry a T that is not the
// stack of its own S and Π, which no downstream consumer would notice.
func VerifyMapping(m *schedule.Mapping, opts *Options) (*Certificate, error) {
	return VerifyMappingContext(context.Background(), m, opts)
}

// VerifyMappingContext is VerifyMapping under a caller context: when
// the context carries an active trace span, the certificate stages are
// recorded as child spans (see internal/trace).
func VerifyMappingContext(ctx context.Context, m *schedule.Mapping, opts *Options) (*Certificate, error) {
	if m == nil {
		return nil, errors.New("verify: nil mapping")
	}
	cert, err := CertifyContext(ctx, m.Algo, m.S, m.Pi, opts)
	if err != nil {
		return nil, err
	}
	if m.T != nil {
		want := m.S.AppendRow(m.Pi)
		if !m.T.Equal(want) {
			cert.fail(WitnessComposition, "mapping's T field is not [S; Π]: got\n%v\nwant\n%v", m.T, want)
		}
	}
	return cert, nil
}

// Certify independently verifies the mapping (S, Π) of algo and
// returns the certificate. The returned error is operational (nil
// inputs, shape mismatch, arithmetic overflow, a done context) —
// an *invalid mapping* is not an error here: it yields a certificate
// with Valid == false and a named FailedWitness. Use Certificate.Err
// to convert the verdict into an error.
func Certify(algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector, opts *Options) (*Certificate, error) {
	return CertifyContext(context.Background(), algo, s, pi, opts)
}

// CertifyContext is Certify under a caller context. Each certificate
// stage (schedule witnesses, conflict analysis, brute-force
// cross-check, simulation, optimality) becomes a child span when the
// context carries an active trace. The conflict analysis's lattice
// search has no budget: it polls the context, and a done context ends
// it with the context's error. Every other stage is bounded by its
// limit (BruteForceLimit, SimulateLimit, OptimalityBudget). An int64
// overflow anywhere in the checks is returned as an
// *intmat.OverflowError.
func CertifyContext(ctx context.Context, algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector, opts *Options) (_ *Certificate, err error) {
	defer intmat.Guard(&err)
	opt := opts.withDefaults()
	ctx, span := trace.Start(ctx, "certify")
	defer span.End()
	if algo == nil {
		return nil, &FailureError{Witness: WitnessShape, Detail: "nil algorithm"}
	}
	if err := algo.Validate(); err != nil {
		return nil, &FailureError{Witness: WitnessShape, Detail: err.Error()}
	}
	n := algo.Dim()
	if s == nil {
		s = intmat.New(0, n)
	}
	if s.Cols() != n {
		return nil, &FailureError{Witness: WitnessShape,
			Detail: fmt.Sprintf("S has %d columns, algorithm dimension is %d", s.Cols(), n)}
	}
	if len(pi) != n {
		return nil, &FailureError{Witness: WitnessShape,
			Detail: fmt.Sprintf("Π has %d entries, algorithm dimension is %d", len(pi), n)}
	}
	t := s.AppendRow(pi)
	k := t.Rows()

	cert := &Certificate{
		Algorithm: algo.Name,
		N:         n,
		K:         k,
		Mu:        algo.Set.Upper.Clone(),
		S:         matrixRows(s),
		Pi:        pi.Clone(),
		Valid:     true,
	}

	// (b) Schedule validity: Π·d̄_j ≥ 1 per dependence column.
	_, schedSpan := trace.Start(ctx, "schedule-witnesses")
	cert.Schedule = make([]ScheduleWitness, algo.NumDeps())
	for j := 0; j < algo.NumDeps(); j++ {
		dep := algo.Dep(j)
		dot := pi.Dot(dep)
		ok := dot >= 1
		cert.Schedule[j] = ScheduleWitness{Dep: dep, Dot: dot, OK: ok}
		if !ok {
			cert.fail(WitnessSchedule, "Π·d̄_%d = %d < 1 for dependence %v", j+1, dot, dep)
		}
	}
	cert.TotalTime = totalTime(pi, algo.Set.Upper)
	schedSpan.SetInt("dependencies", int64(algo.NumDeps()))
	schedSpan.End()

	// (a) Conflict-freeness from a fresh TU = [L, 0] factorization.
	_, confSpan := trace.Start(ctx, "conflict-analysis")
	free, witness, err := analyzeConflicts(ctx, cert, t, algo.Set)
	confSpan.End()
	if err != nil {
		if errors.Is(err, intmat.ErrRankDeficient) {
			cert.fail(WitnessRank, "rank(T) = %d < k = %d", t.Rank(), k)
			return cert, nil
		}
		return nil, err
	}
	cert.ConflictFree = free
	if !free {
		cert.ConflictWitness = witness
		cert.fail(WitnessConflict, "conflict vector %v connects two index points (all |γ_i| ≤ μ_i)", witness)
	}

	// Definitional cross-check below the size cutoff.
	if opt.BruteForceLimit > 0 && !algo.Set.SizeExceeds(opt.BruteForceLimit) {
		_, bfSpan := trace.Start(ctx, "brute-force")
		bfFree, bfWitness := conflict.BruteForce(t, algo.Set)
		cc := &CrossCheck{Ran: true, Points: algo.Set.Size(), Agrees: bfFree == free, Witness: bfWitness}
		cert.BruteForce = cc
		bfSpan.SetInt("points", cc.Points)
		bfSpan.End()
		if !cc.Agrees {
			cert.fail(WitnessBrute, "independent decision says free=%v but brute force says free=%v (bf witness %v)",
				free, bfFree, bfWitness)
		}
	}

	// (d) Optional simulation replay. Only meaningful on a structurally
	// sound mapping: the simulator needs rank(T) = k and a forward
	// schedule to replay at all.
	if opt.Simulate && cert.FailedWitness != WitnessRank && scheduleAllOK(cert.Schedule) &&
		!algo.Set.SizeExceeds(opt.SimulateLimit) {
		_, simSpan := trace.Start(ctx, "simulation")
		simulateWitness(cert, algo, s, pi, t)
		simSpan.End()
	}

	// (c) Time-optimality bound. Only certified for valid schedules —
	// TotalTime of an invalid Π bounds nothing.
	if !opt.SkipOptimality && scheduleAllOK(cert.Schedule) {
		_, optSpan := trace.Start(ctx, "optimality")
		optimalityWitness(cert, algo, pi, opt)
		optSpan.SetStr("verdict", cert.Optimality)
		optSpan.End()
	}
	if cert.Valid {
		span.SetStr("verdict", "valid")
	} else {
		span.SetStr("verdict", cert.FailedWitness)
	}
	return cert, nil
}

// DecideConflict is the package's independent exact conflict decision
// on a bare mapping matrix, exposed for the differential harness: it
// shares no code with conflict.Decide's criterion ladder or the
// factored SpaceAnalyzer. The returned witness (conflict case) is a
// non-zero lattice vector with every |γ_i| ≤ μ_i. Only ctx bounds it.
func DecideConflict(ctx context.Context, t *intmat.Matrix, set uda.IndexSet) (free bool, witness intmat.Vector, err error) {
	defer intmat.Guard(&err)
	return analyzeConflicts(ctx, &Certificate{Valid: true}, t, set)
}

// analyzeConflicts runs the independent conflict analysis, filling the
// HNF, basis and enumeration witnesses of cert as it goes.
func analyzeConflicts(ctx context.Context, cert *Certificate, t *intmat.Matrix, set uda.IndexSet) (bool, intmat.Vector, error) {
	h, err := intmat.HermiteNormalForm(t)
	if err != nil {
		return false, nil, err
	}
	k := t.Rows()
	ldiag := make([]int64, k)
	for i := range ldiag {
		ldiag[i] = h.H.At(i, i)
	}
	hw := &HNFWitness{LDiag: ldiag}
	cert.HNF = hw
	// Defense in depth around the exact arithmetic: re-verify the
	// factorization's defining properties before trusting its basis.
	if err := h.Verify(); err != nil {
		cert.fail(WitnessHNF, "%v", err)
		return false, nil, nil
	}
	hw.Checked = true

	// Theorem 2.2 witness per basis vector. An infeasible basis vector
	// is itself a conflict (it is non-zero, integral and in null(T)).
	basis := h.NullBasis()
	cert.Basis = make([]BasisWitness, len(basis))
	var conflictWitness intmat.Vector
	for bi, gamma := range basis {
		idx, excess := feasibleIndex(set, gamma)
		cert.Basis[bi] = BasisWitness{Gamma: gamma, FeasibleIndex: idx, Excess: excess}
		if idx < 0 && conflictWitness == nil {
			conflictWitness = gamma
		}
	}
	if conflictWitness != nil {
		return false, conflictWitness, nil
	}
	// Basis feasibility settles k = n (no null space) and k = n−1 (the
	// lattice is {c·γ}, and |c·γ_i| ≥ |γ_i| > μ_i for c ≠ 0). Deeper
	// codimension needs the lattice search: a combination of feasible
	// basis vectors can itself be infeasible (Example 4.1).
	if len(basis) <= 1 {
		cert.Enumeration = &EnumerationWitness{BetaBounds: []int64{}, Points: 0}
		return true, nil, nil
	}
	witness, ew, err := searchLattice(ctx, basis, set.Upper)
	cert.Enumeration = ew
	return witness == nil && err == nil, witness, err
}

// feasibleIndex returns the first axis i with |γ_i| > μ_i and the
// excess |γ_i| − μ_i, or (−1, 0) when γ is infeasible-free (i.e. a
// genuine conflict vector of the box).
func feasibleIndex(set uda.IndexSet, gamma intmat.Vector) (int, int64) {
	for i, g := range gamma {
		if g < 0 {
			g = -g
		}
		if g > set.Upper[i] {
			return i, g - set.Upper[i]
		}
	}
	return -1, 0
}

// latticePoll is the number of search nodes between two polls of the
// caller's context.
const latticePoll = 256

// searchLattice decides exactly whether the lattice spanned by basis
// holds a non-zero γ with every |γ_i| ≤ μ_i, and returns such a γ or
// nil. The basis must be independent, as the null columns of a verified
// unimodular U are. The search rows are the coordinates in ascending μ
// order, and the basis is brought to column-echelon form: cols[t] is
// zero above its pivot row, the pivot rows strictly increase, and each
// pivot entry is positive. γ = Σ β_t·cols[t] is then fixed above the
// pivot row of cols[t] by β_1…β_{t−1}, so a depth-first walk over β
// bounds β_t by the box at that row and prunes a partial β on the rows
// between two pivots. Every lattice vector has exactly one β, so the
// walk is exhaustive; only ctx bounds it. An int64 overflow panics with
// *intmat.OverflowError.
func searchLattice(ctx context.Context, basis []intmat.Vector, mu intmat.Vector) (intmat.Vector, *EnumerationWitness, error) {
	n, q := len(mu), len(basis)
	order := make([]int, n) // search row r is axis order[r]
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return mu[order[a]] < mu[order[b]] })
	cols := make([][]int64, q)
	for t, u := range basis {
		cols[t] = make([]int64, n)
		for r, i := range order {
			cols[t][r] = u[i]
		}
	}
	// Extended-gcd column steps, each unimodular, so the columns keep
	// spanning the same lattice. piv[t+1] is the pivot row of cols[t],
	// between the sentinels piv[0] = −1 and piv[q+1] = n; rows above r
	// are zero in the columns from len(piv) − 1 on.
	piv := []int{-1}
	for r := 0; r < n && len(piv) <= q; r++ {
		c := cols[len(piv)-1]
		for _, o := range cols[len(piv):] {
			if o[r] == 0 {
				continue
			}
			g, x, y := extGCD(c[r], o[r])
			a, b := c[r]/g, o[r]/g
			for i := r; i < n; i++ {
				c[i], o[i] = checkedAdd(checkedMul(x, c[i]), checkedMul(y, o[i])), checkedAdd(checkedMul(a, o[i]), checkedMul(-b, c[i]))
			}
		}
		if c[r] < 0 {
			for i := r; i < n; i++ {
				c[i] = checkedMul(-1, c[i])
			}
		}
		if c[r] != 0 {
			piv = append(piv, r)
		}
	}
	piv = append(piv, n)

	ew := &EnumerationWitness{BetaBounds: make([]int64, q)}
	gamma := make([][]int64, q+1) // gamma[t] = Σ_{s<t} β_s·cols[s]
	for t := range gamma {
		gamma[t] = make([]int64, n)
	}
	// descend tries every β_t the box allows. zero reports β_1…β_{t−1}
	// all zero; then β_t ≥ 0, since γ is odd in β and the box is
	// symmetric, so the first non-zero β is positive.
	var descend func(t int, zero bool) (intmat.Vector, error)
	descend = func(t int, zero bool) (intmat.Vector, error) {
		g := gamma[t]
		// The rows after the previous pivot, up to this one (to the last
		// row at t = q), are fixed by now.
		for r := piv[t] + 1; r < piv[t+1]; r++ {
			if abs64(g[r]) > mu[order[r]] {
				return nil, nil
			}
		}
		if t == q {
			if zero {
				return nil, nil
			}
			w := make(intmat.Vector, n)
			for r, i := range order {
				w[i] = g[r]
			}
			return w, nil
		}
		// |g_p + β·col_p| ≤ μ at the pivot row p bounds β.
		p, col := piv[t+1], cols[t]
		m := mu[order[p]]
		lo := checkedMul(-1, floorDiv(checkedAdd(m, g[p]), col[p]))
		hi := floorDiv(checkedAdd(m, checkedMul(-1, g[p])), col[p])
		if zero {
			lo = max(lo, 0)
		}
		for beta := lo; beta <= hi; beta++ {
			if ew.Points%latticePoll == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			ew.Points++
			ew.BetaBounds[t] = max(ew.BetaBounds[t], abs64(beta))
			for r := range g {
				gamma[t+1][r] = checkedAdd(g[r], checkedMul(beta, col[r]))
			}
			if w, err := descend(t+1, zero && beta == 0); w != nil || err != nil {
				return w, err
			}
		}
		return nil, nil
	}
	w, err := descend(0, true)
	return w, ew, err
}

// extGCD returns g = gcd(a, b) > 0 (b ≠ 0) and x, y with x·a + y·b = g.
func extGCD(a, b int64) (g, x, y int64) {
	g, x, y = a, 1, 0
	for g1, x1, y1 := b, int64(0), int64(1); g1 != 0; {
		k := g / g1
		g, g1 = g1, g-k*g1
		x, x1 = x1, x-k*x1
		y, y1 = y1, y-k*y1
	}
	if g < 0 {
		g, x, y = -g, -x, -y
	}
	return g, x, y
}

// scheduleAllOK reports whether every per-dependence witness passed.
func scheduleAllOK(ws []ScheduleWitness) bool {
	for _, w := range ws {
		if !w.OK {
			return false
		}
	}
	return true
}

// simulateWitness replays the mapping through the cycle-accurate
// simulator and checks that the observed computational conflicts agree
// with the algebraic verdict.
func simulateWitness(cert *Certificate, algo *uda.Algorithm, s *intmat.Matrix, pi intmat.Vector, t *intmat.Matrix) {
	m := &schedule.Mapping{Algo: algo, S: s, Pi: pi, T: t}
	sim, err := systolic.New(m, &systolic.ChecksumProgram{Streams: algo.NumDeps()}, nil)
	if err != nil {
		cert.fail(WitnessSimulation, "building simulator: %v", err)
		return
	}
	run, err := sim.Run()
	if err != nil {
		cert.fail(WitnessSimulation, "simulation run: %v", err)
		return
	}
	sw := &SimulationWitness{
		Ran:          true,
		Cycles:       run.Cycles,
		Computations: run.Computations,
		Conflicts:    len(run.Conflicts),
		MaxOccupancy: run.MaxOccupancy,
		Agrees:       (len(run.Conflicts) == 0) == cert.ConflictFree,
	}
	cert.Simulation = sw
	if !sw.Agrees {
		cert.fail(WitnessSimulation, "algebraic verdict free=%v but simulation observed %d conflicts",
			cert.ConflictFree, len(run.Conflicts))
	}
}

// optimalityWitness computes the best certified lower bound on the
// total time of any valid schedule and compares it with TotalTime(Π).
func optimalityWitness(cert *Certificate, algo *uda.Algorithm, pi intmat.Vector, opt Options) {
	cost := cert.TotalTime - 1
	lb, kind := int64(1), "trivial"

	// Closed-form per-dependence bound: Π·d̄_j ≥ 1 and
	// |Π·d̄_j| ≤ (Σ|π_i|μ_i)·max_i(|d_ij|/μ_i) give
	// cost ≥ ⌈min_{i: d_ij≠0} μ_i/|d_ij|⌉ for every column j.
	if cf := closedFormConeBound(algo); cf > lb {
		lb, kind = cf, "closed-form-cone"
	}

	// Exact cone minimum: the cheapest Π' with Π'D > 0, ignoring
	// conflicts, found by level enumeration up to cost − 1. Finding
	// none proves cost is the cone minimum.
	exact, exhausted := exactConeBound(algo, cost, opt.OptimalityBudget)
	if !exhausted {
		if exact > lb {
			lb, kind = exact, "exact-cone"
		}
	}

	// Dataflow critical path: any schedule with unit-time computations
	// needs at least the longest dependence chain.
	if !algo.Set.SizeExceeds(DefaultCriticalPathLimit) {
		if cp, err := algo.CriticalPath(); err == nil && cp > lb {
			lb, kind = cp, "critical-path"
		}
	}

	cert.LowerBound = lb
	cert.LowerBoundKind = kind
	if lb == cert.TotalTime {
		cert.Optimality = Optimal
	} else {
		cert.Optimality = FeasibleOnly
	}
}

// closedFormConeBound returns 1 + max_j ⌈min_{i: d_ij≠0} μ_i/|d_ij|⌉,
// a closed-form lower bound on the total time of any Π with ΠD > 0.
func closedFormConeBound(algo *uda.Algorithm) int64 {
	mu := algo.Set.Upper
	var best int64 = 1
	for j := 0; j < algo.NumDeps(); j++ {
		dep := algo.Dep(j)
		var q int64 = -1
		for i, d := range dep {
			if d == 0 {
				continue
			}
			c := ceilDiv(mu[i], abs64(d))
			if q < 0 || c < q {
				q = c
			}
		}
		if q > 0 && 1+q > best { // bound on total time is 1 + q
			best = 1 + q
		}
	}
	return best
}

// exactConeBound enumerates schedule vectors in increasing objective
// order (independently of schedule's enumerate) looking for the
// cheapest valid Π' with cost ≤ maxCost − 1. It returns the certified
// lower bound 1 + c on total time when the sweep completes — either
// the cost of the cheapest cheaper valid schedule, or maxCost + 1
// (= the caller's own total time) when none exists. exhausted reports
// the candidate budget ran out before the sweep finished.
func exactConeBound(algo *uda.Algorithm, maxCost int64, budget int64) (bound int64, exhausted bool) {
	cols := make([]intmat.Vector, algo.NumDeps())
	for i := range cols {
		cols[i] = algo.D.Col(i)
	}
	visited := int64(0)
	for c := int64(1); c < maxCost; c++ {
		found, over := anyValidAtCost(algo.Set.Upper, cols, c, &visited, budget)
		if over {
			return 0, true
		}
		if found {
			return 1 + c, false
		}
	}
	return 1 + maxCost, false
}

// anyValidAtCost reports whether some Π with Σ|π_i|·μ_i = cost
// satisfies ΠD > 0, via a sign-and-magnitude recursion independent of
// schedule's enumerator. over reports the visit budget ran out.
func anyValidAtCost(mu intmat.Vector, depCols []intmat.Vector, cost int64, visited *int64, budget int64) (found, over bool) {
	n := len(mu)
	pi := make(intmat.Vector, n)
	var rec func(i int, remaining int64) bool // returns true to keep going
	ok := false
	rec = func(i int, remaining int64) bool {
		if i == n {
			if remaining != 0 {
				return true
			}
			*visited++
			if *visited > budget {
				return false
			}
			valid := true
			for _, d := range depCols {
				if pi.Dot(d) <= 0 {
					valid = false
					break
				}
			}
			if valid {
				ok = true
				return false
			}
			return true
		}
		w := mu[i]
		if w == 0 {
			w = 1
		}
		maxAbs := remaining / w
		for v := -maxAbs; v <= maxAbs; v++ {
			pi[i] = v
			used := v * w
			if used < 0 {
				used = -used
			}
			if !rec(i+1, remaining-used) {
				return false
			}
		}
		pi[i] = 0
		return true
	}
	completed := rec(0, cost)
	if ok {
		return true, false
	}
	return false, !completed && *visited > budget
}

// totalTime is Equation 2.7, computed locally: t = 1 + Σ|π_i|·μ_i.
func totalTime(pi intmat.Vector, mu intmat.Vector) int64 {
	t := int64(1)
	for i, p := range pi {
		if p < 0 {
			p = -p
		}
		t += p * mu[i]
	}
	return t
}

func matrixRows(m *intmat.Matrix) [][]int64 {
	rows := make([][]int64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// floorDiv rounds a/b down for b > 0 and a of either sign.
func floorDiv(a, b int64) int64 {
	d := a / b
	if a%b != 0 && a < 0 {
		d--
	}
	return d
}

// checkedAdd and checkedMul panic with *intmat.OverflowError (captured
// by intmat.Guard at the certification boundary) on int64 overflow.
func checkedAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		panic(&intmat.OverflowError{Op: "verify add"})
	}
	return s
}

func checkedMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		panic(&intmat.OverflowError{Op: "verify mul"})
	}
	return p
}
