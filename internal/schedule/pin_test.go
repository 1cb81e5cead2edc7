package schedule

import (
	"fmt"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// pinnedProblems are the problems of the JointMapping benchmark rows,
// by name: the rows report these searches' counters, so the pins below
// hold the search to them outside the benchmark too.
func pinnedProblems() map[string]*uda.Algorithm {
	bitlevel := &uda.Algorithm{
		Name: "bitlevel-00026",
		Set:  uda.Cube(4, 3),
		D:    intmat.FromRows([]int64{1, 0, 0, 0, 1}, []int64{0, 1, 0, 0, 1}, []int64{0, 0, 1, 0, 0}, []int64{0, 0, 0, 1, 0}),
	}
	matmul2D := uda.MatMul(4)
	matmul2D.Name, matmul2D.Set = "matmul-4x4x7", uda.IndexSet{Upper: intmat.Vec(4, 4, 7)}
	return map[string]*uda.Algorithm{
		"matmul":             uda.MatMul(4),
		"transitive-closure": uda.TransitiveClosure(4),
		"bitlevel-00026":     bitlevel,
		"matmul-4x4x7":       matmul2D,
		"bit-matmul":         uda.BitLevelMatMul(1, 2),
	}
}

// pinCounts formats a search's effort counters: schedule candidates,
// cost levels, and conflict decisions by method (table, cache, fresh).
func pinCounts(s *SearchStats) string {
	return fmt.Sprintf("sched=%d levels=%d table=%d cached=%d fresh=%d",
		s.ScheduleCandidates, s.CostLevels, s.ConflictTable, s.HNFIncremental, s.HNFFromScratch)
}

// TestJointMappingPins: the winner, the candidate counts and every
// effort counter of the JointMapping benchmark problems, at one worker
// and at two. The values are those of the search before its storage
// moved into the level walk: where the walk keeps its tables and caches
// must not change what it decides, or how.
func TestJointMappingPins(t *testing.T) {
	pins := []struct {
		algo string
		dims int
		want string
	}{
		{"matmul", 1, "S=[[0 1 -1]] Π=[1 1 4] t=25 cost=11 candidates=13 pruned=10 pick=11 sched=20 levels=24 table=0 cached=39 fresh=41"},
		{"transitive-closure", 1, "S=[[1 -1 0]] Π=[4 1 1] t=25 cost=15 candidates=13 pruned=7 pick=2 sched=2 levels=24 table=0 cached=4 fresh=14"},
		{"bitlevel-00026", 1, "S=[[1 -1 -1 1]] Π=[1 2 3 11] t=52 cost=17 candidates=40 pruned=24 pick=1837 sched=2380 levels=51 table=43519 cached=0 fresh=2"},
		{"matmul-4x4x7", 2, "S=[[0 1 0] [1 0 0]] Π=[1 1 1] t=16 cost=27 candidates=78 pruned=32 pick=1 sched=1 levels=15 table=0 cached=0 fresh=32"},
		{"bit-matmul", 1, "S=[[0 1 -1 -1 1]] Π=[1 1 1 5 3] t=20 cost=13 candidates=121 pruned=80 pick=505 sched=722 levels=19 table=32259 cached=0 fresh=2"},
		{"bitlevel-00026", 2, "S=[[0 0 1 -1] [0 1 -1 -1]] Π=[1 1 1 1] t=13 cost=52 candidates=780 pruned=522 pick=1 sched=1 levels=12 table=0 cached=0 fresh=229"},
	}
	problems := pinnedProblems()
	for _, p := range pins {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/dims=%d/workers=%d", p.algo, p.dims, workers), func(t *testing.T) {
				r, err := FindJointMapping(problems[p.algo], p.dims, &SpaceOptions{Schedule: Options{Workers: workers}})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("S=%v Π=%v t=%d cost=%d candidates=%d pruned=%d pick=%d %s",
					rowsOf(r.Mapping.S), r.Mapping.Pi, r.Time, r.Cost, r.Candidates, r.Pruned,
					r.ScheduleResult.Candidates, pinCounts(r.Stats))
				if got != p.want {
					t.Errorf("got  %s\nwant %s", got, p.want)
				}
			})
		}
	}
}

// TestParetoPins: the fronts and effort counters of the Pareto
// benchmark problems, at one worker and at two, as the search reported
// them before its storage moved into the level walk.
func TestParetoPins(t *testing.T) {
	pins := []struct {
		algo  string
		slack int64
		want  string
	}{
		{"matmul", 0, "S=[[0 1 -1]] Π=[1 1 4] (t=25, p=9, b=3, l=2); best=0 bound=25 candidates=13 pruned=8 sched=20 levels=24 table=0 cached=51 fresh=47"},
		{"matmul", 2, "S=[[0 1 -1]] Π=[1 1 4] (t=25, p=9, b=3, l=2); best=0 bound=27 candidates=13 pruned=8 sched=20 levels=26 table=0 cached=51 fresh=47"},
		{"transitive-closure", 0, "S=[[1 -1 0]] Π=[4 1 1] (t=25, p=9, b=5, l=3); best=0 bound=25 candidates=13 pruned=4 sched=2 levels=24 table=0 cached=4 fresh=14"},
		{"transitive-closure", 2, "S=[[1 -1 0]] Π=[4 1 1] (t=25, p=9, b=5, l=3); best=0 bound=27 candidates=13 pruned=4 sched=2 levels=26 table=0 cached=4 fresh=14"},
	}
	problems := pinnedProblems()
	for _, p := range pins {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/slack=%d/workers=%d", p.algo, p.slack, workers), func(t *testing.T) {
				r, err := FindPareto(problems[p.algo], 1, &ParetoOptions{
					Space:     SpaceOptions{Schedule: Options{Workers: workers}},
					TimeSlack: p.slack,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := ""
				for _, m := range r.Front {
					got += fmt.Sprintf("S=%v Π=%v %v; ", rowsOf(m.Mapping.S), m.Mapping.Pi, m.Vector)
				}
				got += fmt.Sprintf("best=%d bound=%d candidates=%d pruned=%d %s",
					r.Best, r.TimeBound, r.Candidates, r.Pruned, pinCounts(r.Stats))
				if got != p.want {
					t.Errorf("got  %s\nwant %s", got, p.want)
				}
			})
		}
	}
}

// rowsOf lists a matrix's rows.
func rowsOf(m *intmat.Matrix) [][]int64 {
	rows := make([][]int64, m.Rows())
	for r := range rows {
		rows[r] = m.Row(r)
	}
	return rows
}

// TestJointMappingAllocBudget: on a shape the catalogue has built and
// with the level walk's storage warm, a sequential joint search
// allocates only its own bookkeeping and the winner's result: the
// live S's matrices, analyzers, conflict tables and decision caches
// come from the catalogue and the walk, so the count does not grow with
// the live S (the 780-candidate search made 1249 allocations when each
// S had storage of its own).
func TestJointMappingAllocBudget(t *testing.T) {
	if intmat.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	problems := pinnedProblems()
	for _, c := range []struct {
		algo   string
		dims   int
		budget float64
	}{
		{"matmul", 1, 50},
		{"transitive-closure", 1, 45},
		{"bitlevel-00026", 1, 90},
		{"matmul-4x4x7", 2, 45},
		{"bitlevel-00026", 2, 55},
	} {
		algo, opts := problems[c.algo], &SpaceOptions{Schedule: Options{Workers: 1}}
		if _, err := FindJointMapping(algo, c.dims, opts); err != nil { // build the shape, warm the walk
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := FindJointMapping(algo, c.dims, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s dims=%d: %.1f allocations per search", c.algo, c.dims, got)
		if got > c.budget {
			t.Errorf("%s dims=%d: %.1f allocations per search, budget %.0f", c.algo, c.dims, got, c.budget)
		}
	}
}
