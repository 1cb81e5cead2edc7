package uda

import (
	"fmt"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
)

// TestCriticalPathMatMul: with D = I over the μ-cube the longest chain
// walks all three axes: 3μ + 1 levels.
func TestCriticalPathMatMul(t *testing.T) {
	for _, mu := range []int64{2, 3, 4} {
		cp, err := MatMul(mu).CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		if want := 3*mu + 1; cp != want {
			t.Errorf("μ=%d: critical path %d, want %d", mu, cp, want)
		}
	}
}

// TestCriticalPathEditDistance: the (1,1) diagonal dominates:
// μ1 + μ2 + 1 levels.
func TestCriticalPathEditDistance(t *testing.T) {
	cp, err := EditDistance(3, 5).CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 9 {
		t.Errorf("critical path %d, want 9", cp)
	}
}

// TestFreeScheduleLevels: sources at level 1, levels increase along
// dependencies, and the offsets follow IndexSet.Each.
func TestFreeScheduleLevels(t *testing.T) {
	a := MatMul(2)
	levels, err := a.freeLevels()
	if err != nil {
		t.Fatal(err)
	}
	offset := map[string]int{}
	a.Set.Each(func(j intmat.Vector) bool {
		offset[j.String()] = len(offset)
		return true
	})
	level := func(j intmat.Vector) int64 { return levels[offset[j.String()]] }
	if got := level(intmat.Vec(0, 0, 0)); got != 1 {
		t.Errorf("origin level %d, want 1", got)
	}
	if got := level(intmat.Vec(2, 2, 2)); got != 7 {
		t.Errorf("corner level %d, want 7", got)
	}
	if got := level(intmat.Vec(0, 1, 2)); got != 4 {
		t.Errorf("level of (0, 1, 2) %d, want 4", got)
	}
	// Monotone along every dependence.
	a.Set.Each(func(j intmat.Vector) bool {
		for i := 0; i < a.NumDeps(); i++ {
			src := j.Sub(a.Dep(i))
			if a.Set.Contains(src) && level(j) <= level(src) {
				t.Errorf("level not increasing along dependence at %v", j)
				return false
			}
		}
		return true
	})
}

// TestCriticalPathCycle: dependences that cancel form a cycle, which
// has no free schedule.
func TestCriticalPathCycle(t *testing.T) {
	a := &Algorithm{Name: "cycle", Set: Box(3, 3), D: intmat.FromRows([]int64{1, -1}, []int64{0, 0})}
	if _, err := a.CriticalPath(); err == nil {
		t.Fatal("a cyclic dependence graph has a critical path")
	}
}

// TestCriticalPathNegativeEntries: transitive closure has dependence
// vectors with negative entries, exercising the fixed-point path.
func TestCriticalPathNegativeEntries(t *testing.T) {
	a := TransitiveClosure(3)
	cp, err := a.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: bounded by |J| and at least the μ+1 chain along d̄_1.
	if cp < 4 || cp > a.Set.Size() {
		t.Errorf("critical path %d out of sane range", cp)
	}
	// Any valid linear schedule dominates the critical path — check the
	// paper's optimum.
	piTime := int64(3*(3+3) + 1)
	if piTime < cp {
		t.Errorf("linear schedule t=%d below the dataflow bound %d", piTime, cp)
	}
}

// TestCriticalPathBoundsLibrary: the dataflow bound never exceeds the
// (schedule-dependent) box diameter bound and is ≥ 1.
func TestCriticalPathBoundsLibrary(t *testing.T) {
	for _, a := range Library() {
		if a.Set.Size() > 3000 {
			continue
		}
		cp, err := a.CriticalPath()
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if cp < 1 || cp > a.Set.Size() {
			t.Errorf("%s: critical path %d out of range", a.Name, cp)
		}
	}
}

// freeScheduleByKey is the string-keyed fixed-point iteration the
// dense levels replaced, kept as their reference with its pass cap
// corrected.
func freeScheduleByKey(a *Algorithm) (map[string]int64, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	level := make(map[string]int64, a.Set.Size())
	// Lexicographic iteration is NOT generally a topological order of
	// the dependence graph (dependence vectors may have negative
	// entries), so iterate to a fixed point; each pass finalizes at
	// least one more level, and the level values are bounded by |J|.
	// For lex-positive dependence matrices one pass suffices.
	lexPositiveDeps := true
	for i := 0; i < a.NumDeps(); i++ {
		d := a.Dep(i)
		pos := false
		for _, x := range d {
			if x > 0 {
				pos = true
				break
			}
			if x < 0 {
				break
			}
		}
		if !pos {
			lexPositiveDeps = false
			break
		}
	}
	passes := 1
	if !lexPositiveDeps {
		// One more pass than the replaced code ran: a chain through
		// every point settles only in pass |J|, which it took for a
		// cycle.
		passes = int(a.Set.Size()) + 1
	}
	for p := 0; p < passes; p++ {
		changed := false
		a.Set.Each(func(j intmat.Vector) bool {
			lv := int64(1)
			for i := 0; i < a.NumDeps(); i++ {
				src := j.Sub(a.Dep(i))
				if !a.Set.Contains(src) {
					continue
				}
				if sl := level[src.String()]; sl+1 > lv {
					lv = sl + 1
				}
			}
			if lv != level[j.String()] {
				level[j.String()] = lv
				changed = true
			}
			return true
		})
		if !changed {
			break
		}
		if p == passes-1 && changed && !lexPositiveDeps {
			return nil, fmt.Errorf("uda: %s: free schedule did not converge — the dependence graph has a cycle", a.Name)
		}
	}
	return level, nil
}

// TestCriticalPathMatchesFixedPoint: on the library algorithms and on
// random small ones, the levels and the critical path are those of the
// fixed-point reference.
func TestCriticalPathMatchesFixedPoint(t *testing.T) {
	algos := Library()
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		n, m := 1+rng.Intn(3), 1+rng.Intn(4)
		upper := make([]int64, n)
		for i := range upper {
			upper[i] = 1 + rng.Int63n(4)
		}
		d := intmat.New(n, m)
		for c := range m {
			for d.Col(c).IsZero() {
				for i := range n {
					d.Set(i, c, rng.Int63n(5)-2)
				}
			}
		}
		algos = append(algos, &Algorithm{Name: fmt.Sprint("random-", len(algos)), Set: Box(upper...), D: d})
	}
	for _, a := range algos {
		if a.Set.Size() > 3000 {
			continue
		}
		want, wantErr := freeScheduleByKey(a)
		levels, err := a.freeLevels()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, reference %v", a, err, wantErr)
		}
		if err != nil {
			continue
		}
		off := 0
		a.Set.Each(func(j intmat.Vector) bool {
			if levels[off] != want[j.String()] {
				t.Fatalf("%s: level of %v is %d, reference %d", a, j, levels[off], want[j.String()])
			}
			off++
			return true
		})
	}
}
