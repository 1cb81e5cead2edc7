package schedule

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

func randObjVec(rng *rand.Rand) ObjectiveVector {
	var v ObjectiveVector
	for i := range v {
		v[i] = int64(rng.Intn(4))
	}
	return v
}

// TestDominatesProperties: the dominance relation is a strict partial
// order — irreflexive, antisymmetric, transitive — and equal vectors
// never dominate each other.
func TestDominatesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a, b, c := randObjVec(rng), randObjVec(rng), randObjVec(rng)
		if Dominates(a, a) {
			t.Fatalf("Dominates(%v, %v) must be false (irreflexive)", a, a)
		}
		if a == b && (Dominates(a, b) || Dominates(b, a)) {
			t.Fatalf("equal vectors %v dominate each other", a)
		}
		if Dominates(a, b) && Dominates(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity violated for %v, %v, %v", a, b, c)
		}
	}
}

// testMember wraps a vector in a minimal member whose tie keys (Π, S)
// are derived from a distinct integer identity.
func testMember(id int64, v ObjectiveVector) ParetoMember {
	return ParetoMember{
		Mapping: &Mapping{Pi: intmat.Vec(id), S: intmat.FromRows([]int64{id})},
		Vector:  v,
	}
}

// bruteFront computes the expected archive content directly from the
// definition: keep m iff nothing dominates it, and among equal vectors
// keep the memberLess-least representative.
func bruteFront(members []ParetoMember) []ParetoMember {
	var out []ParetoMember
	for i := range members {
		keep := true
		for j := range members {
			if Dominates(members[j].Vector, members[i].Vector) {
				keep = false
				break
			}
			if members[j].Vector == members[i].Vector && memberLess(&members[j], &members[i]) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, members[i])
		}
	}
	var arch Archive
	arch.members = out
	return arch.Front()
}

// TestArchiveInsertOrderIndependence: any insertion order yields the
// brute-force front, member for member.
func TestArchiveInsertOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		members := make([]ParetoMember, n)
		for i := range members {
			members[i] = testMember(int64(i), randObjVec(rng))
		}
		want := bruteFront(members)
		for shuffle := 0; shuffle < 5; shuffle++ {
			perm := rng.Perm(n)
			var arch Archive
			for _, i := range perm {
				arch.Insert(members[i])
			}
			got := arch.Front()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("front depends on insertion order %v:\ngot  %v\nwant %v", perm, got, want)
			}
		}
	}
}

// TestArchiveEvictsDominated: inserting a dominating member removes
// every member it dominates.
func TestArchiveEvictsDominated(t *testing.T) {
	var arch Archive
	arch.Insert(testMember(1, ObjectiveVector{5, 5, 5, 5}))
	arch.Insert(testMember(2, ObjectiveVector{5, 5, 5, 4}))
	arch.Insert(testMember(3, ObjectiveVector{4, 4, 4, 4}))
	front := arch.Front()
	if len(front) != 1 || front[0].Vector != (ObjectiveVector{4, 4, 4, 4}) {
		t.Fatalf("front = %v, want the single dominating member", front)
	}
	if arch.Insert(testMember(4, ObjectiveVector{4, 4, 4, 5})) {
		t.Fatal("dominated insert reported as retained")
	}
}

func frontSignature(res *ParetoResult) [][3]string {
	sig := make([][3]string, len(res.Front))
	for i, m := range res.Front {
		sig[i] = [3]string{m.Vector.String(), m.Mapping.Pi.String(), m.Mapping.S.String()}
	}
	return sig
}

// TestFindParetoMatmulFront: on Example 5.1's matmul, the front's
// minimum time matches the single-objective joint optimum, every
// member is pairwise non-dominated and genuinely conflict-free.
func TestFindParetoMatmulFront(t *testing.T) {
	algo := uda.MatMul(4)
	res, err := FindPareto(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := FindJointMapping(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Front[0].Vector[ObjTime] != joint.Time {
		t.Errorf("front min time %d, joint optimum %d", res.Front[0].Vector[ObjTime], joint.Time)
	}
	if res.TimeBound != joint.Time {
		t.Errorf("TimeBound = %d with zero slack, want the optimum %d", res.TimeBound, joint.Time)
	}
	for i, m := range res.Front {
		if m.Vector[ObjTime] > res.TimeBound {
			t.Errorf("member %d time %d beyond window %d", i, m.Vector[ObjTime], res.TimeBound)
		}
		if free, w := conflict.BruteForce(m.Mapping.T, algo.Set); !free {
			t.Errorf("member %d has conflict %v", i, w)
		}
		for j, o := range res.Front {
			if i != j && Dominates(o.Vector, m.Vector) {
				t.Errorf("front member %d dominated by member %d", i, j)
			}
		}
	}
}

// TestFindParetoWorkerInvariance: the front — members, order, best
// pick, bound — and the effort counters are identical at Workers 1, 2
// and 8, with and without slack. This also locks the archive against
// discovery-order tie-breaking.
func TestFindParetoWorkerInvariance(t *testing.T) {
	counts := func(st *SearchStats) [6]int64 {
		return [6]int64{st.ScheduleCandidates, st.CostLevels, st.InnerSearches, st.ConflictTable, st.HNFIncremental, st.HNFFromScratch}
	}
	algos := []*uda.Algorithm{uda.MatMul(3), uda.TransitiveClosure(2), uda.Convolution(3, 2)}
	for _, algo := range algos {
		for _, slack := range []int64{0, 4} {
			seq, err := FindPareto(algo, 1, &ParetoOptions{TimeSlack: slack})
			if err != nil {
				t.Fatalf("%s slack=%d: %v", algo.Name, slack, err)
			}
			for _, workers := range []int{2, 8} {
				par, err := FindPareto(algo, 1, &ParetoOptions{
					TimeSlack: slack,
					Space:     SpaceOptions{Schedule: Options{Workers: workers}},
				})
				if err != nil {
					t.Fatalf("%s slack=%d workers=%d: %v", algo.Name, slack, workers, err)
				}
				if !reflect.DeepEqual(frontSignature(seq), frontSignature(par)) {
					t.Errorf("%s slack=%d: front differs at workers=%d:\nseq %v\npar %v",
						algo.Name, slack, workers, frontSignature(seq), frontSignature(par))
				}
				if seq.Best != par.Best || seq.TimeBound != par.TimeBound {
					t.Errorf("%s slack=%d: best/bound differ at workers=%d", algo.Name, slack, workers)
				}
				if g, w := counts(par.Stats), counts(seq.Stats); g != w {
					t.Errorf("%s slack=%d: counters %v at workers=%d, %v at workers=1", algo.Name, slack, g, workers, w)
				}
			}
		}
	}
}

// TestFindParetoSlackWindow: widening the window keeps every
// zero-slack vector on the front (a wider window can only add
// trade-offs, never dominate a time-optimal member) and respects the
// bound.
func TestFindParetoSlackWindow(t *testing.T) {
	algo := uda.MatMul(3)
	tight, err := FindPareto(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FindPareto(algo, 1, &ParetoOptions{TimeSlack: 6})
	if err != nil {
		t.Fatal(err)
	}
	if wide.TimeBound != tight.TimeBound+6 {
		t.Errorf("wide bound %d, want %d", wide.TimeBound, tight.TimeBound+6)
	}
	haveVec := map[ObjectiveVector]bool{}
	for _, m := range wide.Front {
		if m.Vector[ObjTime] > wide.TimeBound {
			t.Errorf("member time %d beyond window %d", m.Vector[ObjTime], wide.TimeBound)
		}
		haveVec[m.Vector] = true
	}
	for _, m := range tight.Front {
		if !haveVec[m.Vector] {
			t.Errorf("time-optimal vector %v lost with slack", m.Vector)
		}
	}
}

// TestParetoWalkMatchesReferenceOnCorpus: on every corpus problem that
// differs from the others by its exact bounds, dependences and search
// knobs (a sample under -short or -race), at slack 0, 1 and 3 and at one
// and two workers, the Pareto level walk agrees with streamingPareto on
// the front, best pick, time bound, candidate and pruned counts, the
// walk's counts, and the error text.
func TestParetoWalkMatchesReferenceOnCorpus(t *testing.T) {
	problems := distinctCorpus(t)
	if testing.Short() || intmat.RaceEnabled {
		problems = corpusSample(t, 4, 24)
	}
	for _, p := range problems {
		algo := p.algorithm()
		for _, slack := range []int64{0, 1, 3} {
			opts := ParetoOptions{TimeSlack: slack, Space: SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost}}}
			want := paretoIdentity(streamingPareto(algo, p.Dims, &opts))
			for _, workers := range []int{1, 2} {
				opts.Space.Schedule.Workers = workers
				if got := paretoIdentity(FindPareto(algo, p.Dims, &opts)); got != want {
					t.Fatalf("%s slack=%d workers=%d:\n got %s\nwant %s", p.ID, slack, workers, got, want)
				}
			}
		}
	}
}

// TestFindParetoNoPasser: a problem whose dependence columns e₁ and −e₁
// admit no Π with ΠD > 0 is refused with the message naming the cost
// ceiling; one whose ceiling lies below its optimum, with the message
// naming the entry bound.
func TestFindParetoNoPasser(t *testing.T) {
	d := intmat.New(3, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, -1)
	algo := &uda.Algorithm{Name: "e1", Set: uda.Cube(3, 2), D: d}
	matmul := uda.MatMul(4) // optimum level 24
	for _, workers := range []int{1, 2} {
		_, err := FindPareto(algo, 1, &ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers, MaxCost: 40}}})
		if want := ErrNoSchedule.Error() + ": no Π with ΠD > 0 and Σ|π_i|·μ_i ≤ 40"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %v, want %q", workers, err, want)
		}
		_, err = FindPareto(matmul, 1, &ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers, MaxCost: 20}}})
		if want := ErrNoSchedule.Error() + ": no conflict-free joint mapping with |entries| ≤ 1"; err == nil || err.Error() != want {
			t.Errorf("matmul workers=%d: error %v, want %q", workers, err, want)
		}
	}
}

// TestParetoModes: lex and weighted selection agree with a direct scan
// of the front, and the front itself is mode-independent.
func TestParetoModes(t *testing.T) {
	algo := uda.TransitiveClosure(2)
	base, err := FindPareto(algo, 1, &ParetoOptions{TimeSlack: 4})
	if err != nil {
		t.Fatal(err)
	}
	lex, err := FindPareto(algo, 1, &ParetoOptions{
		TimeSlack: 4, Mode: ModeLex, LexOrder: []Objective{ObjProcessors, ObjBuffers},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frontSignature(base), frontSignature(lex)) {
		t.Fatal("front differs between modes")
	}
	want := 0
	order := fullLexOrder([]Objective{ObjProcessors, ObjBuffers})
	for i := range lex.Front {
		if lexVecLess(lex.Front[i].Vector, lex.Front[want].Vector, order) {
			want = i
		}
	}
	if lex.Best != want {
		t.Errorf("lex best = %d, want %d", lex.Best, want)
	}
	weighted, err := FindPareto(algo, 1, &ParetoOptions{
		TimeSlack: 4, Mode: ModeWeighted, Weights: [NumObjectives]int64{1, 3, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	want = 0
	score := func(v ObjectiveVector) int64 { return v[ObjTime] + 3*v[ObjProcessors] }
	for i := range weighted.Front {
		if score(weighted.Front[i].Vector) < score(weighted.Front[want].Vector) {
			want = i
		}
	}
	if weighted.Best != want {
		t.Errorf("weighted best = %d, want %d", weighted.Best, want)
	}
}

// TestParetoOptionValidation: malformed selections fail before any
// search runs.
func TestParetoOptionValidation(t *testing.T) {
	algo := uda.MatMul(2)
	cases := []*ParetoOptions{
		{TimeSlack: -1},
		{Mode: ModeLex, LexOrder: []Objective{ObjTime, ObjTime}},
		{Mode: ModeLex, LexOrder: []Objective{Objective(9)}},
		{Mode: ModeWeighted},
		{Mode: ModeWeighted, Weights: [NumObjectives]int64{-1, 1, 0, 0}},
		{Mode: ParetoMode(42)},
	}
	for i, opts := range cases {
		if _, err := FindPareto(algo, 1, opts); err == nil || errors.Is(err, ErrNoSchedule) {
			t.Errorf("case %d: want a validation error, got %v", i, err)
		}
	}
}

// randomAlgorithm builds a seeded random 3-D uniform dependence
// algorithm: identity dependences guarantee ΠD > 0 is satisfiable,
// extra random columns create the tie-rich instances the tie-break
// test needs.
func randomAlgorithm(rng *rand.Rand) *uda.Algorithm {
	n := 3
	bounds := make(intmat.Vector, n)
	for i := range bounds {
		bounds[i] = 2 + int64(rng.Intn(2))
	}
	deps := intmat.New(n, n+1+rng.Intn(2))
	for i := 0; i < n; i++ {
		col := make(intmat.Vector, n)
		col[i] = 1
		deps.SetCol(i, col)
	}
	for c := n; c < deps.Cols(); c++ {
		col := make(intmat.Vector, n)
		for i := range col {
			col[i] = int64(rng.Intn(3) - 1)
		}
		if col[0] <= 0 {
			col[0] = 1 // keep the column schedulable alongside the identity
		}
		deps.SetCol(c, col)
	}
	return &uda.Algorithm{Name: "random", Set: uda.Cube(3, bounds[0]), D: deps}
}

// TestJointTieBreakDeterminism locks the pinned total tie-break order
// of the joint search: a fixed seed generates tie-rich instances and
// the winner must be byte-identical at Workers=1 and Workers=8.
func TestJointTieBreakDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	algos := []*uda.Algorithm{uda.MatMul(3), uda.TransitiveClosure(2), uda.Convolution(3, 2)}
	for i := 0; i < 6; i++ {
		a := randomAlgorithm(rng)
		if err := a.Validate(); err != nil {
			continue
		}
		algos = append(algos, a)
	}
	for i, algo := range algos {
		seq, seqErr := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: 1}})
		for run := 0; run < 3; run++ {
			par, parErr := FindJointMapping(algo, 1, &SpaceOptions{Schedule: Options{Workers: 8}})
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("algo %d: outcome differs: seq err %v, par err %v", i, seqErr, parErr)
			}
			if seqErr != nil {
				if !errors.Is(seqErr, ErrNoSchedule) || !errors.Is(parErr, ErrNoSchedule) {
					t.Fatalf("algo %d: unexpected errors %v / %v", i, seqErr, parErr)
				}
				continue
			}
			if seq.Time != par.Time || seq.Cost != par.Cost ||
				seq.Mapping.Pi.String() != par.Mapping.Pi.String() ||
				seq.Mapping.S.String() != par.Mapping.S.String() {
				t.Errorf("algo %d run %d: winner differs between worker counts:\nseq t=%d c=%d Π=%v S=%v\npar t=%d c=%d Π=%v S=%v",
					i, run, seq.Time, seq.Cost, seq.Mapping.Pi, seq.Mapping.S,
					par.Time, par.Cost, par.Mapping.Pi, par.Mapping.S)
			}
		}
	}
}
