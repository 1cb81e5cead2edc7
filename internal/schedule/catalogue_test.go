package schedule

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestCatalogueMatchesEnumeration: for the corpus shapes and a few
// beyond them, the catalogue lists the candidates of the matrix
// enumeration in its order, each with the null(S) basis
// NewSpaceAnalyzer computes, and every row index round-trips.
func TestCatalogueMatchesEnumeration(t *testing.T) {
	for _, key := range []shapeKey{
		{2, 1, 1}, {3, 1, 1}, {3, 2, 1}, {4, 1, 1}, {4, 2, 1},
		{5, 1, 1}, {5, 2, 1}, {3, 1, 2}, {3, 2, 2}, {4, 3, 1},
	} {
		sh, err := lookupShape(key.n, key.k, key.maxEntry)
		if err != nil {
			t.Fatal(err)
		}
		want, err := collectSpaceMappings(key.n, key.k, key.maxEntry)
		if err != nil {
			t.Fatal(err)
		}
		if sh.count() != len(want) {
			t.Fatalf("%v: %d candidates, enumeration has %d", key, sh.count(), len(want))
		}
		set := uda.Cube(key.n, 2)
		for i, s := range want {
			if got := sh.matrix(i); !got.Equal(s) {
				t.Fatalf("%v candidate %d:\n%v\nwant\n%v", key, i, got, s)
			}
			sa, err := conflict.NewSpaceAnalyzer(s, set)
			if err != nil {
				t.Fatal(err)
			}
			if got := sh.basis(i); !slices.EqualFunc(got, sa.W, slices.Equal[intmat.Vector]) {
				t.Fatalf("%v candidate %d: basis %v, want %v", key, i, got, sa.W)
			}
		}
		for r := range sh.numRows() {
			if got := sh.rowIndex(sh.row(r)); got != r {
				t.Fatalf("%v: row %v indexes as %d, want %d", key, sh.row(r), got, r)
			}
			if got := sh.rowIndex(sh.row(r).Neg()); got != r {
				t.Fatalf("%v: row −%v indexes as %d, want %d", key, sh.row(r), got, r)
			}
		}
	}
}

// TestCataloguePricesMatchReference: on every distinct corpus problem
// (a sample under -short or -race), the automorphisms are those of the
// string-keyed reference in its order, the orbit marks those of the
// matrix reference, and every candidate's row-table wire term and
// processor bound those of wireLength and processorLowerBound.
func TestCataloguePricesMatchReference(t *testing.T) {
	problems := distinctCorpus(t)
	if testing.Short() || intmat.RaceEnabled {
		problems = corpusSample(t, 6, 3)
	}
	ctx := context.Background()
	for _, p := range problems {
		algo := p.algorithm()
		ones := make(intmat.Vector, algo.Dim())
		for i := range ones {
			ones[i] = 1
		}
		for _, pi := range []intmat.Vector{nil, ones} {
			if got, want := axisAutomorphisms(algo, pi), axisAutomorphismsByKey(algo, pi); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s Π=%v: automorphisms %v, want %v", p.ID, pi, got, want)
			}
		}
		maxEntry := maxEntryOrDefault(&SpaceOptions{MaxEntry: p.MaxEntry})
		ref, err := collectSpaceMappings(algo.Dim(), p.Dims, maxEntry)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := collectCandidates(ctx, algo, p.Dims, maxEntry, false, nil, &SearchStats{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			t.Fatalf("%s: no candidates", p.ID)
		}
		if want := symmetryPruned(ref, axisAutomorphismsByKey(algo, nil)); !slices.Equal(cs.pruned, want) {
			t.Fatalf("%s: orbit marks differ from the matrix reference", p.ID)
		}
		all, err := collectCandidates(ctx, algo, p.Dims, maxEntry, true, nil, &SearchStats{})
		if err != nil {
			t.Fatal(err)
		}
		all.price(algo)
		for i, s := range ref {
			if got, want := all.wire(i, algo.D), wireLength(s, algo.D); got != want {
				t.Fatalf("%s candidate %d: wire %d, want %d", p.ID, i, got, want)
			}
			if got, want := all.lowerBound(i), processorLowerBound(s, algo.Set.Upper); got != want {
				t.Fatalf("%s candidate %d: bound %d, want %d", p.ID, i, got, want)
			}
		}
	}
}

// TestCatalogueWireOverflow: a candidate whose wire term passes int64
// raises the overflow wireLength raises, and a candidate whose rows
// stay within int64 is still priced.
func TestCatalogueWireOverflow(t *testing.T) {
	big := int64(1) << 62
	algo := &uda.Algorithm{Name: "wide", Set: uda.Cube(2, 2), D: intmat.FromRows([]int64{big}, []int64{big})}
	cs, i := candidateOf(t, algo, intmat.FromRows([]int64{1, 1}))
	wantErr := func() (err error) {
		defer intmat.Guard(&err)
		wireLength(cs.shape.matrix(i), algo.D)
		return nil
	}()
	gotErr := func() (err error) {
		defer intmat.Guard(&err)
		cs.wire(i, algo.D)
		return nil
	}()
	var oe *intmat.OverflowError
	if !errors.As(gotErr, &oe) || gotErr.Error() != wantErr.Error() {
		t.Fatalf("wire error %v, want %v", gotErr, wantErr)
	}
	cs, i = candidateOf(t, algo, intmat.FromRows([]int64{1, -1}))
	if got := cs.wire(i, algo.D); got != 0 {
		t.Fatalf("wire of [1 -1] = %d, want 0", got)
	}
}

// forgetShape drops key from the catalogue, so the next search of it
// builds it afresh.
func forgetShape(key shapeKey) {
	catalogue.mu.Lock()
	defer catalogue.mu.Unlock()
	if slot := catalogue.shapes[key]; slot != nil {
		catalogue.bytes -= slot.shape.bytes()
		delete(catalogue.shapes, key)
	}
}

// retained reports whether the catalogue holds key.
func retained(key shapeKey) bool {
	catalogue.mu.Lock()
	defer catalogue.mu.Unlock()
	return catalogue.shapes[key] != nil
}

// TestCatalogueConcurrentBuild: joint searches racing on a shape no
// search has built find one shape, built once, and the reference
// winner. Run with -race it checks the build's publication.
func TestCatalogueConcurrentBuild(t *testing.T) {
	key := shapeKey{3, 1, 3}
	forgetShape(key)
	algo := uda.MatMul(3)
	opts := func(workers int) *SpaceOptions {
		return &SpaceOptions{MaxEntry: key.maxEntry, Schedule: Options{Workers: workers}}
	}
	want := jointIdentity(referenceJoint(t, algo, key.k, opts(1)))
	const searches = 4
	got := make([]string, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for g := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := FindJointMapping(algo, key.k, opts(1+g%2))
			got[g], errs[g] = jointIdentity(res), err
		}()
	}
	wg.Wait()
	for g := range searches {
		if errs[g] != nil {
			t.Fatalf("search %d: %v", g, errs[g])
		}
		if got[g] != want {
			t.Fatalf("search %d:\n got %s\nwant %s", g, got[g], want)
		}
	}
	if !retained(key) {
		t.Fatalf("shape %v not retained", key)
	}
}

// shapeContents is a deep copy of a shape's storage.
func shapeContents(sh *spaceShape) string {
	return fmt.Sprint(sh.n, sh.k, sh.base, sh.center, sh.rows, sh.cands, sh.mats, sh.w)
}

// TestCatalogueUnchangedBySearches: after joint, Pareto and Problem 6.1
// searches over a corpus sample — winners whose mappings the test
// scribbles over included — every shape they used holds what it held
// before, so no search writes a shared row, tuple, matrix or basis.
func TestCatalogueUnchangedBySearches(t *testing.T) {
	problems := corpusSample(t, 2, 8)
	before := map[shapeKey]string{}
	shapes := map[shapeKey]*spaceShape{}
	for _, p := range problems {
		key := shapeKey{len(p.Bounds), p.Dims, maxEntryOrDefault(&SpaceOptions{MaxEntry: p.MaxEntry})}
		if shapes[key] == nil {
			sh, err := lookupShape(key.n, key.k, key.maxEntry)
			if err != nil {
				t.Fatal(err)
			}
			shapes[key], before[key] = sh, shapeContents(sh)
		}
	}
	scribble := func(m *Mapping) {
		for r := range m.S.Rows() {
			for c := range m.S.Cols() {
				m.S.Set(r, c, 7)
			}
		}
	}
	for _, p := range problems {
		algo := p.algorithm()
		space := SpaceOptions{MaxEntry: p.MaxEntry, Schedule: Options{MaxCost: p.MaxCost, Workers: 2}}
		joint, err := FindJointMapping(algo, p.Dims, &space)
		if errors.Is(err, ErrNoSchedule) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		pi := joint.Mapping.Pi
		scribble(joint.Mapping)
		if res, err := FindSpaceMapping(algo, pi, p.Dims, &space); err != nil {
			t.Fatalf("%s space: %v", p.ID, err)
		} else {
			scribble(res.Mapping)
		}
		front, err := FindPareto(algo, p.Dims, &ParetoOptions{Space: space})
		if err != nil {
			t.Fatalf("%s pareto: %v", p.ID, err)
		}
		for _, m := range front.Front {
			scribble(m.Mapping)
		}
	}
	for key, sh := range shapes {
		if got := shapeContents(sh); got != before[key] {
			t.Fatalf("shape %v changed by the searches", key)
		}
	}
}

// TestCataloguePastBudget: a shape larger than the budget answers the
// reference winner and is not retained, and the catalogue's retained
// bytes are unchanged.
func TestCataloguePastBudget(t *testing.T) {
	key := shapeKey{4, 2, 2}
	algo := &uda.Algorithm{Name: "cube", Set: uda.Cube(4, 1), D: intmat.Identity(4)}
	catalogue.mu.Lock()
	bytes := catalogue.bytes
	catalogue.mu.Unlock()
	opts := &SpaceOptions{MaxEntry: key.maxEntry, Schedule: Options{Workers: 1}}
	want := jointIdentity(referenceJoint(t, algo, key.k, opts))
	res, err := FindJointMapping(algo, key.k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := jointIdentity(res); got != want {
		t.Fatalf("got %s\nwant %s", got, want)
	}
	sh, err := buildShape(key.n, key.k, key.maxEntry)
	if err != nil {
		t.Fatal(err)
	}
	if sh.bytes() <= catalogueBudget {
		t.Fatalf("shape %v takes %d bytes, within the budget %d", key, sh.bytes(), catalogueBudget)
	}
	if retained(key) {
		t.Fatalf("shape %v of %d bytes retained past the budget", key, sh.bytes())
	}
	catalogue.mu.Lock()
	defer catalogue.mu.Unlock()
	if catalogue.bytes != bytes {
		t.Fatalf("retained bytes %d, were %d", catalogue.bytes, bytes)
	}
}
