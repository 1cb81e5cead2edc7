package verify

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/uda"
)

// The paper's running example: matmul with the linear-array space
// mapping S = [1 1 −1] and the enumeration winner Π = [1 2 3]
// (t = 25 = μ(μ+2)+1 for μ = 4).
func matmulMapping(t *testing.T) (*uda.Algorithm, *intmat.Matrix, intmat.Vector) {
	t.Helper()
	return uda.MatMul(4), intmat.FromRows([]int64{1, 1, -1}), intmat.Vec(1, 2, 3)
}

func TestCertifyMatMulWinner(t *testing.T) {
	algo, s, pi := matmulMapping(t)
	cert, err := Certify(algo, s, pi, &Options{Simulate: true})
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !cert.Valid {
		t.Fatalf("valid mapping rejected: %s / %s", cert.FailedWitness, cert.FailedDetail)
	}
	if !cert.ConflictFree {
		t.Errorf("conflict-free mapping flagged conflicting: witness %v", cert.ConflictWitness)
	}
	if cert.TotalTime != 25 {
		t.Errorf("total time = %d, want 25", cert.TotalTime)
	}
	if len(cert.Schedule) != 3 {
		t.Fatalf("schedule witnesses = %d, want 3", len(cert.Schedule))
	}
	for j, w := range cert.Schedule {
		if !w.OK || w.Dot < 1 {
			t.Errorf("schedule witness %d: dot %d, ok %v", j, w.Dot, w.OK)
		}
	}
	if cert.HNF == nil || !cert.HNF.Checked {
		t.Error("missing or unchecked HNF witness")
	}
	// k = 2, n = 3: exactly one basis vector, with a feasible index.
	if len(cert.Basis) != 1 {
		t.Fatalf("basis witnesses = %d, want 1", len(cert.Basis))
	}
	if bw := cert.Basis[0]; bw.FeasibleIndex < 0 || bw.Excess < 1 {
		t.Errorf("basis witness lacks a feasible index: %+v", bw)
	}
	if cert.BruteForce == nil || !cert.BruteForce.Ran || !cert.BruteForce.Agrees {
		t.Errorf("brute-force cross-check: %+v", cert.BruteForce)
	}
	if cert.Simulation == nil || !cert.Simulation.Ran || !cert.Simulation.Agrees || cert.Simulation.Conflicts != 0 {
		t.Errorf("simulation witness: %+v", cert.Simulation)
	}
	// The conflict constraint forces t = 25 while the unconstrained Π
	// cone admits Π = [1 1 1] (t = 13); the bound must see that and
	// flag the mapping FeasibleOnly.
	if cert.Optimality != FeasibleOnly {
		t.Errorf("optimality = %q, want %q", cert.Optimality, FeasibleOnly)
	}
	if cert.LowerBound != 13 {
		t.Errorf("lower bound = %d (%s), want 13", cert.LowerBound, cert.LowerBoundKind)
	}
	if err := cert.Err(); err != nil {
		t.Errorf("Err() on valid certificate: %v", err)
	}
	if err := cert.Check(algo, s, pi); err != nil {
		t.Errorf("Check rejects its own certificate: %v", err)
	}
}

func TestCertifyOptimalVerdict(t *testing.T) {
	// 2-D algorithm, deps e1, e2; full-dimension mapping S = [1 0],
	// Π = [1 1]: k = n ⇒ no conflict vectors, and Π is the cheapest
	// point of the cone, so the certificate must say Optimal.
	algo := &uda.Algorithm{
		Name: "grid",
		Set:  uda.Box(3, 2),
		D:    intmat.FromRows([]int64{1, 0}, []int64{0, 1}),
	}
	cert, err := Certify(algo, intmat.FromRows([]int64{1, 0}), intmat.Vec(1, 1), nil)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !cert.Valid || !cert.ConflictFree {
		t.Fatalf("certificate: %+v", cert)
	}
	if len(cert.Basis) != 0 {
		t.Errorf("k = n mapping has %d basis witnesses, want 0", len(cert.Basis))
	}
	if cert.TotalTime != 6 {
		t.Errorf("total time = %d, want 6", cert.TotalTime)
	}
	if cert.Optimality != Optimal || cert.LowerBound != 6 {
		t.Errorf("optimality = %q with bound %d, want %q with 6", cert.Optimality, cert.LowerBound, Optimal)
	}
}

func TestCertifyNamedFailures(t *testing.T) {
	algo := uda.MatMul(2)
	cases := []struct {
		name    string
		s       *intmat.Matrix
		pi      intmat.Vector
		witness string
	}{
		{
			name:    "invalid schedule",
			s:       intmat.FromRows([]int64{1, 1, -1}),
			pi:      intmat.Vec(1, -1, 1), // Π·d̄_2 = −1
			witness: WitnessSchedule,
		},
		{
			name:    "rank deficient",
			s:       intmat.FromRows([]int64{1, 1, 1}),
			pi:      intmat.Vec(1, 1, 1),
			witness: WitnessRank,
		},
		{
			name:    "conflicting",
			s:       intmat.New(0, 3), // T = Π alone must be injective
			pi:      intmat.Vec(1, 1, 1),
			witness: WitnessConflict,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cert, err := Certify(algo, tc.s, tc.pi, nil)
			if err != nil {
				t.Fatalf("Certify: %v", err)
			}
			if cert.Valid {
				t.Fatalf("corrupted mapping accepted")
			}
			if cert.FailedWitness != tc.witness {
				t.Fatalf("failed witness = %q, want %q (detail: %s)", cert.FailedWitness, tc.witness, cert.FailedDetail)
			}
			var fe *FailureError
			if err := cert.Err(); !errors.As(err, &fe) || fe.Witness != tc.witness {
				t.Errorf("Err() = %v, want *FailureError naming %q", err, tc.witness)
			}
			if err := cert.Check(algo, tc.s, tc.pi); err != nil {
				t.Errorf("Check rejects a faithful failing certificate: %v", err)
			}
		})
	}
}

func TestCertifyConflictWitnessIsGenuine(t *testing.T) {
	// Π = [1 1 1] over the μ = 2 cube conflicts: e.g. γ = (1, −1, 0).
	algo := uda.MatMul(2)
	cert, err := Certify(algo, intmat.New(0, 3), intmat.Vec(1, 1, 1), nil)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	w := intmat.Vector(cert.ConflictWitness)
	if w.IsZero() {
		t.Fatalf("no conflict witness recorded")
	}
	if d := w.Dot(intmat.Vec(1, 1, 1)); d != 0 {
		t.Errorf("witness %v not in null(T): Π·γ = %d", w, d)
	}
	for i, g := range w {
		if abs64(g) > algo.Set.Upper[i] {
			t.Errorf("witness %v is Theorem 2.2-feasible at axis %d — no conflict", w, i+1)
		}
	}
	if cert.BruteForce == nil || !cert.BruteForce.Agrees {
		t.Errorf("brute force disagrees with conflict verdict: %+v", cert.BruteForce)
	}
}

func TestVerifyMappingCompositionWitness(t *testing.T) {
	algo, s, pi := matmulMapping(t)
	m, err := schedule.NewMapping(algo, s, pi)
	if err != nil {
		t.Fatalf("NewMapping: %v", err)
	}
	cert, err := VerifyMapping(m, &Options{SkipOptimality: true})
	if err != nil {
		t.Fatalf("VerifyMapping: %v", err)
	}
	if !cert.Valid {
		t.Fatalf("valid mapping rejected: %s", cert.FailedWitness)
	}
	// Corrupt the composed T: S and Π still valid, T no longer [S; Π].
	corrupted := *m
	corrupted.T = intmat.FromRows([]int64{1, 1, -1}, []int64{3, 2, 1})
	cert, err = VerifyMapping(&corrupted, &Options{SkipOptimality: true})
	if err != nil {
		t.Fatalf("VerifyMapping: %v", err)
	}
	if cert.Valid || cert.FailedWitness != WitnessComposition {
		t.Errorf("corrupted T: valid=%v witness=%q, want composition failure", cert.Valid, cert.FailedWitness)
	}
}

func TestCertifyShapeErrors(t *testing.T) {
	algo := uda.MatMul(2)
	if _, err := Certify(nil, nil, intmat.Vec(1, 1, 1), nil); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := Certify(algo, intmat.FromRows([]int64{1, 1}), intmat.Vec(1, 1, 1), nil); err == nil {
		t.Error("2-column S accepted for 3-D algorithm")
	}
	if _, err := Certify(algo, nil, intmat.Vec(1, 1), nil); err == nil {
		t.Error("2-entry Π accepted for 3-D algorithm")
	}
	var fe *FailureError
	_, err := Certify(algo, nil, intmat.Vec(1, 1), nil)
	if !errors.As(err, &fe) || fe.Witness != WitnessShape {
		t.Errorf("shape error = %v, want *FailureError naming %q", err, WitnessShape)
	}
}

func TestCheckRejectsTampering(t *testing.T) {
	algo, s, pi := matmulMapping(t)
	fresh := func() *Certificate {
		cert, err := Certify(algo, s, pi, nil)
		if err != nil {
			t.Fatalf("Certify: %v", err)
		}
		return cert
	}
	tamper := []struct {
		name string
		mut  func(c *Certificate)
	}{
		{"flip a schedule dot", func(c *Certificate) { c.Schedule[0].Dot++ }},
		{"forge total time", func(c *Certificate) { c.TotalTime-- }},
		{"forge basis vector", func(c *Certificate) { c.Basis[0].Gamma[0]++ }},
		{"forge feasible index", func(c *Certificate) { c.Basis[0].FeasibleIndex = 2 }},
		{"claim optimal", func(c *Certificate) { c.Optimality = Optimal }},
		{"raise the bound", func(c *Certificate) { c.LowerBound = c.TotalTime + 1 }},
		{"swap Π", func(c *Certificate) { c.Pi[0] = 7 }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			cert := fresh()
			tc.mut(cert)
			if err := cert.Check(algo, s, pi); err == nil {
				t.Errorf("tampered certificate passed Check")
			}
		})
	}
}

func TestCertificateJSONRoundTrip(t *testing.T) {
	algo, s, pi := matmulMapping(t)
	cert, err := Certify(algo, s, pi, &Options{Simulate: true})
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	blob, err := json.Marshal(cert)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{"schedule_validity", "null_basis", "hnf", "brute_force", "simulation", "lower_bound"} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("serialized certificate lacks %q", key)
		}
	}
	var back Certificate
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := back.Check(algo, s, pi); err != nil {
		t.Errorf("round-tripped certificate fails Check: %v", err)
	}
}

func TestDeepCodimensionEnumeration(t *testing.T) {
	// k = 1, n = 3: two basis vectors, so the verdict needs the
	// independent lattice sweep, not just per-basis feasibility.
	set := uda.Box(2, 2, 2)
	// T = [1 5 25]: distinct images for all 27 points (base-5 digits),
	// conflict-free despite a 2-D conflict lattice.
	free, wit, err := DecideConflict(context.Background(), intmat.FromRows([]int64{1, 5, 25}), set)
	if err != nil {
		t.Fatalf("DecideConflict: %v", err)
	}
	if !free {
		t.Errorf("injective mapping flagged conflicting: witness %v", wit)
	}
	// T = [1 1 4] collides (e.g. j and j + (1,−1,0)).
	free, wit, err = DecideConflict(context.Background(), intmat.FromRows([]int64{1, 1, 4}), set)
	if err != nil {
		t.Fatalf("DecideConflict: %v", err)
	}
	if free {
		t.Error("colliding mapping flagged conflict-free")
	} else if wit.IsZero() {
		t.Error("conflict verdict without witness")
	}
}

// TestWideBoxNeedsNoBudget: the basis vectors (100, −1, 0) and
// (0, 100, −1) of T = [1 100 10000] are individually feasible
// (100 > 99), so the verdict needs the lattice search. A sweep of the
// β box V·μ bounds would visit about 4M points; the echelon search
// settles it in a handful of nodes, with no budget to exhaust.
func TestWideBoxNeedsNoBudget(t *testing.T) {
	cert, err := Certify(wideBox(), nil, intmat.Vec(1, 100, 10000), &Options{SkipOptimality: true, BruteForceLimit: -1})
	if err != nil || !cert.Valid || !cert.ConflictFree {
		t.Fatalf("Certify = %+v, %v; want a valid, conflict-free certificate", cert, err)
	}
	if cert.Enumeration == nil || cert.Enumeration.Points > 10 {
		t.Errorf("enumeration witness %+v, want a search of at most 10 nodes", cert.Enumeration)
	}
}

// TestCertifyCancelled: the lattice search polls the caller's context,
// so a done context ends certification with the context's error.
func TestCertifyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CertifyContext(ctx, wideBox(), nil, intmat.Vec(1, 100, 10000), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("CertifyContext err = %v, want context.Canceled", err)
	}
}

// wideBox is μ = (99, 99, 99) with the dependence e₁, so that
// Π = (1, 100, 10000) is a valid schedule with a 2-D null space.
func wideBox() *uda.Algorithm {
	d := intmat.New(3, 1)
	d.SetCol(0, intmat.Vec(1, 0, 0))
	return &uda.Algorithm{Name: "wide", Set: uda.Box(99, 99, 99), D: d}
}

// TestCertifyOverflowIsError: a mapping whose Hermite factorization
// leaves int64 must come back as an operational *intmat.OverflowError,
// never as a panic — callers certify peer-supplied mappings on
// goroutines with no recover.
func TestCertifyOverflowIsError(t *testing.T) {
	d := intmat.New(4, 1)
	d.SetCol(0, intmat.Vec(1, 0, 0, 0))
	algo := &uda.Algorithm{Name: "wide", Set: uda.Box(7, 7, 1, 1), D: d}
	// Entries near 2^31: the products of the elimination pass 2^63.
	s := intmat.FromRows([]int64{1898783637, -1930117241, -971266136, -1985023419})
	pi := intmat.Vec(573394572, 509016719, -2065724704, 1770185555)
	var oe *intmat.OverflowError
	if _, err := Certify(algo, s, pi, &Options{SkipOptimality: true, BruteForceLimit: -1}); !errors.As(err, &oe) {
		t.Errorf("Certify err = %v, want *intmat.OverflowError", err)
	}
	if _, _, err := DecideConflict(context.Background(), s.AppendRow(pi), algo.Set); !errors.As(err, &oe) {
		t.Errorf("DecideConflict err = %v, want *intmat.OverflowError", err)
	}
	members := []ParetoInput{{S: s, Pi: pi}}
	if _, err := CertifyPareto(context.Background(), algo, members, 1<<40, nil); !errors.As(err, &oe) {
		t.Errorf("CertifyPareto err = %v, want *intmat.OverflowError", err)
	}
}
