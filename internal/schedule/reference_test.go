package schedule

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// This file keeps the per-candidate prelude the shape catalogue
// replaced — the matrix enumeration, the string-keyed automorphism
// test, the matrix orbit marks and the per-S processor bound — as
// references the catalogue and the searches are checked against.

// axisAutomorphismsByKey is the string-keyed reference for
// axisAutomorphisms: it returns the non-identity coordinate permutations σ
// (encoded as p with (σv)_i = v_{p[i]}) under which the algorithm is
// invariant: μ_{p[i]} = μ_i for all i and the multiset of dependence
// columns of D maps onto itself. When pi is non-nil (Problem 6.1's
// fixed schedule) Π must additionally be invariant. Applying such a σ
// to a space mapping relabels the index space by an isomorphism, so
// every mapping in the resulting orbit shares its time, processor
// count, wire length — and hence its search metrics — exactly.
func axisAutomorphismsByKey(algo *uda.Algorithm, pi intmat.Vector) [][]int {
	n := algo.Dim()
	mu := algo.Set.Upper
	cols := make([]intmat.Vector, algo.NumDeps())
	colCount := make(map[string]int, len(cols))
	for i := range cols {
		cols[i] = algo.D.Col(i)
		colCount[cols[i].String()]++
	}
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
			cnt := make(map[string]int, len(colCount))
			pc := make(intmat.Vector, n)
			for _, c := range cols {
				for j := 0; j < n; j++ {
					pc[j] = c[p[j]]
				}
				cnt[pc.String()]++
			}
			for k, v := range colCount {
				if cnt[k] != v {
					return
				}
			}
			perms = append(perms, append([]int(nil), p...))
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

// symmetryPruned marks every candidate that is not the
// lexicographically least member of its automorphism orbit. The
// enumeration emits candidates in lexicographic matrix order
// (canonical rows ascending), each orbit image is itself an enumerated
// candidate (permuting coordinates of canonical rows and
// re-canonicalizing stays within the row set, preserves rank and
// distinctness), and orbit members share all search metrics — so
// keeping only the least member preserves the (metric, enumeration
// index) winner exactly.
func symmetryPruned(cands []*intmat.Matrix, perms [][]int) []bool {
	pruned := make([]bool, len(cands))
	if len(perms) == 0 {
		return pruned
	}
	for ci, s := range cands {
		rows := make([]intmat.Vector, s.Rows())
		for r := range rows {
			rows[r] = s.Row(r)
		}
		for _, p := range perms {
			img := make([]intmat.Vector, len(rows))
			for r, row := range rows {
				pr := make(intmat.Vector, len(row))
				for j := range pr {
					pr[j] = row[p[j]]
				}
				if fz := pr.FirstNonZero(); fz >= 0 && pr[fz] < 0 {
					for j := range pr {
						pr[j] = -pr[j]
					}
				}
				img[r] = pr
			}
			slices.SortFunc(img, slices.Compare[intmat.Vector])
			if slices.CompareFunc(img, rows, slices.Compare[intmat.Vector]) < 0 {
				pruned[ci] = true
				break
			}
		}
	}
	return pruned
}

// collectSpaceMappings materializes the canonical candidate list in
// enumeration (lexicographic) order, so the parallel search can index
// candidates stably.
func collectSpaceMappings(n, rows int, maxEntry int64) ([]*intmat.Matrix, error) {
	var out []*intmat.Matrix
	err := enumerateSpaceMappings(n, rows, maxEntry, func(s *intmat.Matrix) bool {
		out = append(out, s.Clone())
		return true
	})
	return out, err
}

// enumerateSpaceMappings visits every (rows×n) integer matrix with
// entries in [−maxEntry, maxEntry], full row rank, and rows in
// canonical orientation and order: each row's first non-zero entry is
// positive (negating a row merely relabels array coordinates) and rows
// appear in a fixed generation order without repetition (reordering
// rows merely relabels axes), so each geometric array is visited once.
// The visitor returns false to stop early.
func enumerateSpaceMappings(n, rows int, maxEntry int64, visit func(*intmat.Matrix) bool) error {
	if rows < 1 {
		return fmt.Errorf("schedule: need at least one space row")
	}
	// Generate canonical rows once.
	var rowSet []intmat.Vector
	var gen func(i int, v intmat.Vector)
	gen = func(i int, v intmat.Vector) {
		if i == n {
			if fz := v.FirstNonZero(); fz >= 0 && v[fz] > 0 {
				rowSet = append(rowSet, v.Clone())
			}
			return
		}
		for e := -maxEntry; e <= maxEntry; e++ {
			v[i] = e
			gen(i+1, v)
		}
		v[i] = 0
	}
	gen(0, make(intmat.Vector, n))

	s := intmat.New(rows, n)
	var rec func(r, start int) bool
	rec = func(r, start int) bool {
		if r == rows {
			if s.Rank() != rows {
				return true
			}
			return visit(s)
		}
		for c := start; c < len(rowSet); c++ {
			s.SetRow(r, rowSet[c])
			if !rec(r+1, c+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
	return nil
}

// processorLowerBound returns a lower bound on |S(J)|: each row of S,
// alone, already distinguishes rowImageSize many processor images, so
// the maximum over rows bounds the count from below. Exact for 1-row S.
func processorLowerBound(s *intmat.Matrix, upper intmat.Vector) int64 {
	ic := getImageCounter()
	defer ic.release()
	lb := int64(1)
	for r := 0; r < s.Rows(); r++ {
		row := ic.rowOf(s, r)
		n := ic.rowImageSize(row, upper)
		if n < 0 {
			// Range too wide to tabulate: along any axis with a
			// non-zero coefficient the row takes μ_i + 1 distinct
			// values with the other coordinates fixed.
			for i, c := range row {
				if c != 0 && upper[i]+1 > n {
					n = upper[i] + 1
				}
			}
		}
		if n > lb {
			lb = n
		}
	}
	return lb
}

// candidateOf returns the priced candidates of s's shape for algo, with
// every orbit kept, and the index of s among them.
func candidateOf(t testing.TB, algo *uda.Algorithm, s *intmat.Matrix) (*candidates, int) {
	t.Helper()
	cs, err := collectCandidates(context.Background(), algo, s.Rows(), 1, true, nil, &SearchStats{})
	if err != nil {
		t.Fatal(err)
	}
	cs.price(algo)
	for i := range cs.len() {
		if cs.shape.matrix(i).Equal(s) {
			return cs, i
		}
	}
	t.Fatalf("S =\n%v is not a candidate", s)
	return nil, 0
}
