package main

import (
	"bytes"
	"sync"
	"testing"
)

// manifestPath is the committed corpus, seen from this package's
// directory.
const manifestPath = "../../corpus/manifest.jsonl"

var (
	loadOnce   sync.Once
	loadedSet  []*problem
	loadErrSet error
)

// testProblems loads the distinct set once per test binary.
func testProblems(t *testing.T) []*problem {
	t.Helper()
	loadOnce.Do(func() { loadedSet, loadErrSet = loadDistinct(manifestPath) })
	if loadErrSet != nil {
		t.Fatal(loadErrSet)
	}
	return loadedSet
}

func TestDistinctSet(t *testing.T) {
	probs := testProblems(t)
	if len(probs) != 1164 {
		t.Errorf("%d distinct problems, want the 1164 of the committed manifest", len(probs))
	}
	fams := map[string]int{}
	keys := map[string]bool{}
	infeasible := 0
	for i, p := range probs {
		if p.idx != i {
			t.Fatalf("problem %d has idx %d", i, p.idx)
		}
		if keys[p.key] {
			t.Fatalf("key %s twice", p.key)
		}
		keys[p.key] = true
		fams[p.inst.Family]++
		if !p.feasible() {
			infeasible++
		}
	}
	want := map[string]int{"adversarial": 890, "matmul": 110, "bitlevel": 71, "convolution": 66, "transitive": 27}
	for f, n := range want {
		if fams[f] != n {
			t.Errorf("family %s: %d problems, want %d", f, fams[f], n)
		}
	}
	if infeasible != 36 {
		t.Errorf("%d infeasible problems, want the manifest's 36", infeasible)
	}
}

// streamBytes concatenates the bodies of every workload's generated
// requests for one seed: two cold-map passes, two jobs-spool passes,
// the hot-mix set and mix, and the start of the cluster-zipf stream.
func streamBytes(probs []*problem, seed int64) []byte {
	var buf bytes.Buffer
	add := func(reqs ...*request) {
		for _, r := range reqs {
			buf.WriteString(r.path)
			buf.Write(r.body)
			buf.WriteByte('\n')
		}
	}
	for p := 0; p < 2; p++ {
		add(coldPass(probs, seed, p)...)
		add(jobsPass(probs, seed, p)...)
	}
	hot := newHotSet(probs, hotProblems, seed)
	add(hot.maps...)
	add(hot.pareto...)
	hot.verify = hot.maps // verify bodies come from answers; stand in for them
	for i := 0; i < 2000; i++ {
		add(hot.at(seed, i))
	}
	z := newZipfStream(probs, seed)
	for i := 0; i < 2000; i++ {
		add(z.at(i))
	}
	return buf.Bytes()
}

func TestStreamsAreSeeded(t *testing.T) {
	probs := testProblems(t)
	a, b := streamBytes(probs, 1), streamBytes(probs, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if bytes.Equal(a, streamBytes(probs, 2)) {
		t.Fatal("a different seed gave the same request streams")
	}
}

func TestWorkloadShapes(t *testing.T) {
	probs := testProblems(t)
	pass := jobsPass(probs, 1, 0)
	resubmits := 0
	seen := map[*request]bool{}
	for i, r := range pass {
		if seen[r] {
			resubmits++
			if i%resubmitEvery != resubmitEvery-1 || !r.prob.feasible() {
				t.Fatalf("resubmission at %d of %s", i, r.prob.inst.ID)
			}
		}
		seen[r] = true
	}
	if len(seen) != len(probs) || resubmits != len(pass)-len(probs) || resubmits < len(probs)/resubmitEvery {
		t.Errorf("jobs pass: %d distinct, %d resubmissions of %d", len(seen), resubmits, len(pass))
	}

	hot := newHotSet(probs, hotProblems, 1)
	if len(hot.probs) != hotProblems || len(hot.pareto) != hotProblems*numParetoModes {
		t.Fatalf("hot set of %d problems, %d pareto bodies", len(hot.probs), len(hot.pareto))
	}
	fams := map[string]bool{}
	for _, p := range hot.probs {
		if !p.feasible() {
			t.Fatalf("hot set holds infeasible %s", p.inst.ID)
		}
		fams[p.inst.Family] = true
	}
	if len(fams) != len(families) {
		t.Errorf("hot set covers %d families, want all %d", len(fams), len(families))
	}

	z := newZipfStream(probs, 1)
	if len(z.rank) != len(probs) {
		t.Fatalf("ranking of %d problems", len(z.rank))
	}
	head := map[*problem]int{}
	pareto := 0
	const n = 20000
	for i := 0; i < n; i++ {
		r := z.at(i)
		head[r.prob]++
		if r.kind == kindPareto {
			pareto++
		}
	}
	if top := head[z.rank[0]]; top < n/10 {
		t.Errorf("the top-ranked problem drew %d of %d requests; Zipf(1.1) gives it about 18%%", top, n)
	}
	if share := float64(pareto) / n; share < 0.08 || share > 0.12 {
		t.Errorf("pareto share %.3f, want about %.2f", share, clusterPareto)
	}
}
