package schedule

import (
	"context"
	"slices"
	"sync"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/trace"
	"lodim/internal/uda"
)

// This file holds the shape catalogue: the part of the space-mapping
// searches' prelude that depends only on the shape (n, k, MaxEntry) of
// the space mappings searched, never on μ or D. A shape's candidate set
// — every k×n matrix of full row rank with entries in
// [−MaxEntry, MaxEntry] and canonical rows in canonical order — and each
// candidate's null(S) basis W are built once per process and shared
// read-only by every search of that shape. Each search then derives
// what depends on its problem (orbit marks, wire terms, processor
// bounds) from tables with one entry per canonical row, of which a shape
// has far fewer than candidates. See DESIGN.md, "Shape catalogue".

// catalogueBudget bounds the bytes of shape storage the catalogue
// retains (spaceShape.bytes, summed over retained shapes). A shape that
// would pass it is built the same way for the search that asked and
// then dropped. Every shape of the committed corpus fits many times
// over: the largest, n = 4 with two rows, takes about 95 KB.
const catalogueBudget = 2 << 20

// shapeKey names a shape: n columns, k rows, |entries| ≤ maxEntry.
type shapeKey struct {
	n, k     int
	maxEntry int64
}

// spaceShape is the candidate set of one shape with the null(S) bases,
// in flat storage. Rows are the canonical rows (first non-zero entry
// positive) in lexicographic order; a candidate is k ascending row
// indices, and candidates come in lexicographic order of those tuples,
// which is the lexicographic order of the matrices. A shape is never
// written once built.
type spaceShape struct {
	n, k int
	// base = 2·maxEntry + 1 and center = (base^n − 1)/2: a row's
	// mixed-radix code Σ_i (v_i + maxEntry)·base^(n−1−i) orders rows
	// lexicographically, negation reflects it about center, and the
	// canonical rows are exactly the codes above center, in order.
	base, center int64
	rows         []int64         // the canonical rows, n entries each
	cands        []int32         // k ascending row indices per candidate
	w            []intmat.Vector // n−k null(S) basis vectors per candidate, views into one array
}

// shapeSlot is the catalogue's entry for one key: the first search of
// the shape builds it; concurrent ones wait for that build.
type shapeSlot struct {
	once  sync.Once
	shape *spaceShape
	err   error
}

// catalogue maps each retained shape's key to its slot; bytes is the
// storage of the retained shapes.
var catalogue struct {
	mu     sync.Mutex
	shapes map[shapeKey]*shapeSlot
	bytes  int64
}

// lookupShape returns the shape (n, k, maxEntry), building it on first
// use. The shape is retained when it fits catalogueBudget beside the
// shapes already retained; otherwise its slot is dropped once built,
// and the next search of the shape builds it again.
func lookupShape(n, k int, maxEntry int64) (*spaceShape, error) {
	key := shapeKey{n, k, maxEntry}
	catalogue.mu.Lock()
	slot := catalogue.shapes[key]
	if slot == nil {
		if catalogue.shapes == nil {
			catalogue.shapes = make(map[shapeKey]*shapeSlot)
		}
		slot = new(shapeSlot)
		catalogue.shapes[key] = slot
	}
	catalogue.mu.Unlock()
	slot.once.Do(func() {
		slot.shape, slot.err = buildShape(n, k, maxEntry)
		catalogue.mu.Lock()
		defer catalogue.mu.Unlock()
		if size := slot.shape.bytes(); slot.err == nil && catalogue.bytes+size <= catalogueBudget {
			catalogue.bytes += size
		} else {
			delete(catalogue.shapes, key)
		}
	})
	return slot.shape, slot.err
}

// buildShape enumerates the shape's candidates with their null(S)
// bases. A rank-deficient tuple of rows is skipped, as the searches
// need rank(S) = k.
func buildShape(n, k int, maxEntry int64) (_ *spaceShape, err error) {
	defer intmat.Guard(&err)
	sh := &spaceShape{n: n, k: k, base: 2*maxEntry + 1}
	codes := int64(1)
	for range n {
		codes = intmat.MulChecked(codes, sh.base)
	}
	sh.center = (codes - 1) / 2
	sh.rows = make([]int64, 0, (codes-1-sh.center)*int64(n))
	for code := sh.center + 1; code < codes; code++ {
		row := sh.rows[len(sh.rows) : len(sh.rows)+n]
		for i, c := n-1, code; i >= 0; i, c = i-1, c/sh.base {
			row[i] = c%sh.base - maxEntry
		}
		sh.rows = sh.rows[:len(sh.rows)+n]
	}
	var flat []int64 // the bases' entries, n per vector
	s := intmat.New(k, n)
	tuple := make([]int32, k)
	var rec func(r, start int) error
	rec = func(r, start int) error {
		if r == k {
			if s.Rank() != k {
				return nil
			}
			w, err := conflict.NullBasis(s)
			if err != nil {
				return err
			}
			for _, v := range w {
				flat = append(flat, v...)
			}
			sh.cands = append(sh.cands, tuple...)
			return nil
		}
		for c := start; c < sh.numRows(); c++ {
			s.SetRow(r, sh.row(c))
			tuple[r] = int32(c)
			if err := rec(r+1, c+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, err
	}
	sh.w = make([]intmat.Vector, len(flat)/n)
	for i := range sh.w {
		sh.w[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return sh, nil
}

func (sh *spaceShape) count() int   { return len(sh.cands) / sh.k }
func (sh *spaceShape) numRows() int { return len(sh.rows) / sh.n }

// row returns canonical row r, which callers must not write.
func (sh *spaceShape) row(r int) intmat.Vector {
	return sh.rows[r*sh.n : (r+1)*sh.n : (r+1)*sh.n]
}

// tuple returns candidate i's row indices.
func (sh *spaceShape) tuple(i int) []int32 {
	return sh.cands[i*sh.k : (i+1)*sh.k : (i+1)*sh.k]
}

// basis returns candidate i's null(S) basis, which callers must not
// write.
func (sh *spaceShape) basis(i int) []intmat.Vector {
	q := sh.n - sh.k
	return sh.w[i*q : (i+1)*q : (i+1)*q]
}

// matrix returns candidate i as a fresh matrix the caller owns.
func (sh *spaceShape) matrix(i int) *intmat.Matrix {
	s := intmat.New(sh.k, sh.n)
	for r, c := range sh.tuple(i) {
		s.SetRow(r, sh.row(int(c)))
	}
	return s
}

// rowIndex returns the index of the canonical row ±v, for a non-zero v
// with entries in [−maxEntry, maxEntry].
func (sh *spaceShape) rowIndex(v intmat.Vector) int {
	m := sh.base / 2
	code := int64(0)
	for _, x := range v {
		code = code*sh.base + x + m
	}
	if code < sh.center {
		return int(sh.center - code - 1)
	}
	return int(code - sh.center - 1)
}

// bytes is the shape's storage: rows, tuples, basis entries and the
// basis vectors' slice headers. A nil shape takes none.
func (sh *spaceShape) bytes() int64 {
	if sh == nil {
		return 0
	}
	return int64(8*len(sh.rows) + 4*len(sh.cands) + len(sh.w)*(24+8*sh.n))
}

// orbitPruned marks every candidate that is not the lexicographically
// least member of its automorphism orbit. Each automorphism permutes
// the canonical rows (permuting a row's coordinates and restoring its
// sign gives another canonical row), so a candidate's image is the
// sorted tuple of its rows' images, and since row indices follow the
// rows' lexicographic order, comparing index tuples compares the
// matrices. The image of a candidate is again a candidate (rank and
// distinctness survive the permutation), and orbit members share every
// search metric, so keeping only the least member preserves the
// (metric, enumeration index) winner exactly.
func (sh *spaceShape) orbitPruned(perms [][]int) []bool {
	pruned := make([]bool, sh.count())
	if len(perms) == 0 {
		return pruned
	}
	nr := sh.numRows()
	images := make([]int32, len(perms)*nr) // images[p*nr+r]: row r under perms[p]
	v := make(intmat.Vector, sh.n)
	for pi, p := range perms {
		for r := range nr {
			row := sh.row(r)
			for j := range v {
				v[j] = row[p[j]]
			}
			images[pi*nr+r] = int32(sh.rowIndex(v))
		}
	}
	img := make([]int32, sh.k)
	for i := range pruned {
		t := sh.tuple(i)
		for pi := range perms {
			im := images[pi*nr : (pi+1)*nr]
			for r, c := range t {
				img[r] = im[c]
			}
			slices.Sort(img)
			if slices.Compare(img, t) < 0 {
				pruned[i] = true
				break
			}
		}
	}
	return pruned
}

// candidates is one search's view of its shape: the orbit marks, and
// per canonical row the wire term and processor bound of the problem
// searched, which price every candidate by sums and maxima over its
// rows. Nothing in it outlives the search.
type candidates struct {
	shape  *spaceShape
	pruned []bool  // orbit marks; all false under NoPrune
	wires  []int64 // per row: Σ_c |row·d̄_c|, or wireOverflow
	bounds []int64 // per row: a lower bound on its image count; 0 until priced
}

// wireOverflow marks a row whose wire term passes int64.
const wireOverflow = -1

// collectCandidates is the prelude of the space-mapping searches, under
// one "collect" span: the shape's candidates from the catalogue, each
// one's orbit mark (all false under noPrune; with pi non-nil, Problem
// 6.1's fixed schedule, only automorphisms fixing pi count), and the
// candidate count added to stats.
func collectCandidates(ctx context.Context, algo *uda.Algorithm, dims int, maxEntry int64, noPrune bool, pi intmat.Vector, stats *statsCollector) (*candidates, error) {
	_, span := trace.Start(ctx, "collect")
	defer span.End()
	sh, err := lookupShape(algo.Dim(), dims, maxEntry)
	if err != nil {
		return nil, err
	}
	cs := &candidates{shape: sh}
	if noPrune {
		cs.pruned = make([]bool, sh.count())
	} else {
		cs.pruned = sh.orbitPruned(axisAutomorphisms(algo, pi))
	}
	span.SetInt("candidates", int64(sh.count()))
	stats.spaceCandidates.Add(int64(sh.count()))
	return cs, nil
}

func (cs *candidates) len() int { return len(cs.pruned) }

// price fills the row tables for every row of an unpruned candidate. A
// wire term past int64 is marked, not raised: wire raises it for the
// candidates that use the row, as the searches would meet it.
func (cs *candidates) price(algo *uda.Algorithm) {
	sh := cs.shape
	cs.wires, cs.bounds = make([]int64, sh.numRows()), make([]int64, sh.numRows())
	ic := getImageCounter()
	defer ic.release()
	upper := algo.Set.Upper
	for i, pruned := range cs.pruned {
		if pruned {
			continue
		}
		for _, r := range sh.tuple(i) {
			if cs.bounds[r] != 0 {
				continue
			}
			row := sh.row(int(r))
			if w, err := rowWire(row, algo.D); err != nil {
				cs.wires[r] = wireOverflow
			} else {
				cs.wires[r] = w
			}
			// A row alone distinguishes rowImageSize many images; past
			// the DP's range, it takes μ_i + 1 distinct values along any
			// axis with a non-zero coefficient.
			b := ic.rowImageSize(row, upper)
			if b < 0 {
				for j, c := range row {
					if c != 0 && upper[j]+1 > b {
						b = upper[j] + 1
					}
				}
			}
			cs.bounds[r] = b
		}
	}
}

// rowWire is one row's wire term Σ_c |row·d̄_c|, in checked arithmetic.
func rowWire(row intmat.Vector, d *intmat.Matrix) (total int64, err error) {
	defer intmat.Guard(&err)
	for c := 0; c < d.Cols(); c++ {
		var x int64
		for i, s := range row {
			x = intmat.AddChecked(x, intmat.MulChecked(s, d.At(i, c)))
		}
		total = intmat.AddChecked(total, intmat.AbsChecked(x))
	}
	return total, nil
}

// wire returns candidate i's wire length Σ_c ‖S·d̄_c‖₁, the sum of its
// rows' terms. When a row's term passes int64 it recomputes the sum the
// way wireLength does, to raise the same overflow.
func (cs *candidates) wire(i int, d *intmat.Matrix) int64 {
	var total int64
	for _, r := range cs.shape.tuple(i) {
		w := cs.wires[r]
		if w == wireOverflow {
			return wireLength(cs.shape.matrix(i), d)
		}
		total = intmat.AddChecked(total, w)
	}
	return total
}

// lowerBound returns a lower bound on candidate i's processor count
// |S(J)|: the most images any of its rows alone distinguishes. It is
// exact for one-row S.
func (cs *candidates) lowerBound(i int) int64 {
	lb := int64(1)
	for _, r := range cs.shape.tuple(i) {
		lb = max(lb, cs.bounds[r])
	}
	return lb
}

// analyzer returns the conflict analyzer of candidate i on the shape's
// cached null(S) basis. Its S is a fresh matrix the search owns.
func (cs *candidates) analyzer(i int, set uda.IndexSet) (*conflict.SpaceAnalyzer, error) {
	return conflict.NewSpaceAnalyzerBasis(cs.shape.matrix(i), set, cs.shape.basis(i))
}

// wireLength returns Σ_i ‖S·d̄_i‖₁, without materializing S·D, adding
// column by column. The searches sum per-row terms instead; this is the
// order a term past int64 is raised in.
func wireLength(s *intmat.Matrix, d *intmat.Matrix) int64 {
	var total int64
	for c := 0; c < d.Cols(); c++ {
		for r := 0; r < s.Rows(); r++ {
			var x int64
			for i := 0; i < s.Cols(); i++ {
				x = intmat.AddChecked(x, intmat.MulChecked(s.At(r, i), d.At(i, c)))
			}
			total = intmat.AddChecked(total, intmat.AbsChecked(x))
		}
	}
	return total
}

// axisAutomorphisms returns the non-identity coordinate permutations σ
// (encoded as p with (σv)_i = v_{p[i]}) under which the algorithm is
// invariant: μ_{p[i]} = μ_i for all i and the multiset of dependence
// columns of D maps onto itself. When pi is non-nil (Problem 6.1's
// fixed schedule) Π must additionally be invariant. Applying such a σ
// to a space mapping relabels the index space by an isomorphism, so
// every mapping in the resulting orbit shares its time, processor
// count, wire length — and hence its search metrics — exactly. The
// multisets are compared as sorted lists of columns.
func axisAutomorphisms(algo *uda.Algorithm, pi intmat.Vector) [][]int {
	n, m := algo.Dim(), algo.NumDeps()
	mu := algo.Set.Upper
	// cols holds D's columns, sorted; img the permuted columns.
	cols, img := make([]intmat.Vector, m), make([]intmat.Vector, m)
	flat := make([]int64, 2*m*n)
	for c := range cols {
		cols[c], img[c] = flat[c*n:(c+1)*n:(c+1)*n], flat[(m+c)*n:(m+c+1)*n:(m+c+1)*n]
		for i := range n {
			cols[c][i] = algo.D.At(i, c)
		}
	}
	slices.SortFunc(cols, slices.Compare[intmat.Vector])
	var perms [][]int
	p := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			identity := true
			for j, v := range p {
				if v != j {
					identity = false
					break
				}
			}
			if identity {
				return
			}
			for c, col := range cols {
				for j := range n {
					img[c][j] = col[p[j]]
				}
			}
			slices.SortFunc(img, slices.Compare[intmat.Vector])
			if slices.EqualFunc(img, cols, slices.Equal[intmat.Vector]) {
				perms = append(perms, slices.Clone(p))
			}
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || mu[v] != mu[i] {
				continue
			}
			if pi != nil && pi[v] != pi[i] {
				continue
			}
			used[v] = true
			p[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return perms
}
