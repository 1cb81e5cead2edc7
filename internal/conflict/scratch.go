package conflict

import (
	"sync"

	"lodim/internal/intmat"
)

// Scratch carries the per-worker state that makes repeated conflict
// decisions against one SpaceAnalyzer allocation-free and incremental:
// an arena for the decomposition scratch and a decision cache keyed by
// the canonical direction of h = Π·W. Neighbouring Π candidates in the
// lex-ordered searches very often produce the same h line — shifting Π
// by a row of S leaves h unchanged entirely, and scalings of h have the
// same null lattice — so the cache turns the dominant per-candidate
// Hermite reduction into a map lookup. A Scratch is not safe for
// concurrent use; the engines keep one per worker goroutine.
type Scratch struct {
	owner *SpaceAnalyzer
	ar    *intmat.Arena
	cache *intmat.VecMap[Result]
	// peak is the most entries cache has held since it was made: Go
	// maps never shrink, so it stands for the map's capacity.
	peak int

	// table counts decisions answered by the conflict-vector table,
	// hits those answered from the cache (the "incremental"
	// decompositions of SearchStats), misses fresh ones.
	table, hits, misses int64

	// tab is owner's conflict-vector table when tabOK (table.go).
	tabOK bool
	tab   conflictTable

	h     intmat.Vector   // Π·W, heap-backed, reused across calls
	hc    intmat.Vector   // canonical direction of h (primitive, first non-zero > 0)
	inner []intmat.Vector // reused header slice for the inner null basis
	basis []intmat.Vector // reused header slice for the combined basis
}

// scratchCacheLimit bounds the decision cache. A search probes at most
// a few thousand distinct h lines; past the limit the cache is assumed
// degenerate and dropped wholesale.
const scratchCacheLimit = 1 << 14

// scratchKeepSlack is how much larger than a search's use a cache may
// be and still be cleared in place. Go's clear touches a map's whole
// capacity, which never shrinks, so a map that once held a large
// search's entries would charge that size to every later reset. A
// reset therefore clears a cache only when its peak is within this
// factor of what the finished search stored (or of scratchKeepMin),
// and otherwise replaces it with one sized to that search: either way
// the reset costs in proportion to what the search stored, and a
// worker whose searches are all large keeps reusing one map.
const scratchKeepSlack = 4

// scratchKeepMin is the smallest cache a reset ever replaces.
const scratchKeepMin = 64

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch from the package pool.
func GetScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	if sc.ar == nil {
		sc.ar = intmat.GetArena()
	}
	return sc
}

// PutScratch releases sc to the pool. The analyzer binding and cache
// contents are dropped so the pool retains no references into a
// finished search; the arena blocks and the cache's storage, sized to
// its last use (see resetCache), stay warm for the next search.
func PutScratch(sc *Scratch) {
	sc.owner = nil
	sc.resetCache()
	sc.tabOK = false
	sc.table, sc.hits, sc.misses = 0, 0, 0
	sc.ar.Reset()
	scratchPool.Put(sc)
}

// resetCache empties the decision cache at a cost proportional to what
// it holds: a cache not much larger than its contents is cleared in
// place (or left alone when empty), and an oversized one is replaced
// (see scratchKeepSlack). A search whose conflicts the table answers
// may store nothing at all, so an empty cache can be oversized too.
func (sc *Scratch) resetCache() {
	if sc.cache == nil {
		return
	}
	n := sc.cache.Len()
	sc.peak = max(sc.peak, n)
	if sc.peak <= scratchKeepSlack*max(n, scratchKeepMin) {
		if n > 0 {
			sc.cache.Clear()
		}
		return
	}
	sc.cache, sc.peak = intmat.NewVecMap[Result](n), n
}

// TakeStats drains and returns the decision counters: table decisions
// (a conflict found in the conflict-vector table), hit decisions
// (answered incrementally from a previous decomposition) and miss
// decisions (decomposed from scratch).
func (sc *Scratch) TakeStats() (table, hits, misses int64) {
	table, hits, misses = sc.table, sc.hits, sc.misses
	sc.table, sc.hits, sc.misses = 0, 0, 0
	return table, hits, misses
}

// bind points sc at sa, resetting the cache when the analyzer changes
// (the cache key is expressed in coordinates of sa.W) and building sa's
// conflict-vector table when null(S) has dimension tableMinDim or more.
// One scratch can thus serve a worker's whole sequence of searches,
// each paying only for the entries the previous one stored.
func (sc *Scratch) bind(sa *SpaceAnalyzer) {
	if sc.owner != sa {
		sc.owner = sa
		sc.resetCache()
		sc.tabOK = len(sa.W) >= tableMinDim && sc.tab.build(sc.ar, sa.W, sa.Set.Upper) == nil
		if sc.cache == nil {
			sc.cache, sc.peak = intmat.NewVecMap[Result](scratchKeepMin), scratchKeepMin
		}
	}
}

// project returns h = Π·W in sc's reused storage, or ErrRank when it is
// zero: Π is then a rational combination of the rows of S.
func (sa *SpaceAnalyzer) project(sc *Scratch, pi intmat.Vector) (intmat.Vector, error) {
	q := len(sa.W)
	if q == 0 {
		// S is already square nonsingular: rank(T) = k would need
		// k = n+1 ≤ n.
		return nil, ErrRank
	}
	if cap(sc.h) < q {
		sc.h = make(intmat.Vector, q)
		sc.hc = make(intmat.Vector, q)
	}
	h := sc.h[:q]
	allZero := true
	for t, w := range sa.W {
		h[t] = pi.Dot(w)
		if h[t] != 0 {
			allZero = false
		}
	}
	if allZero {
		return nil, ErrRank
	}
	return h, nil
}

// DecideScratch is Decide with scratch-backed storage, the
// conflict-vector table and the decision cache. It returns exactly the
// verdict Decide would. When sc holds sa's table of in-box null(S)
// vectors (table.go, built by bind), a Π that annihilates one of them
// has a conflict, reported with that vector as witness and Method
// "conflict-table". Every other Π goes to the cache: on a miss it runs
// decideFresh, the routine Decide runs; on a hit the stored Result is
// returned as-is — its verdict is valid for every Π with the same h
// line because the conflict-vector lattice W·null(h) depends only on
// that line, though the Method and Witness reflect the candidate that
// populated the entry. Callers must treat the Result (including any Witness) as
// read-only; it may be shared with the cache, and a table witness is
// valid only until sc is bound to another analyzer or released.
func (sa *SpaceAnalyzer) DecideScratch(sc *Scratch, pi intmat.Vector) (Result, error) {
	sc.bind(sa)
	h, err := sa.project(sc, pi)
	if err != nil {
		return Result{}, err
	}
	if sc.tabOK && boxNormFits(pi, sa.Set.Upper) {
		if w, ok := sc.tab.scan(h); ok {
			sc.table++
			return Result{Witness: w, Method: "conflict-table"}, nil
		}
	}
	hc := sc.hc[:len(h)]
	copy(hc, h)
	canonicalizeDirection(hc)
	key := intmat.KeyFor(hc)
	if res, ok := sc.cache.Load(key); ok {
		sc.hits++
		return res, nil
	}
	sc.misses++
	res, err := sa.decideFresh(sc, h)
	if err != nil {
		return Result{}, err
	}
	// The ladder only ever returns heap vectors (Canonical copies), so
	// the Result is safe to retain past the next arena Reset.
	if n := sc.cache.Len(); n >= scratchCacheLimit {
		sc.peak = max(sc.peak, n)
		sc.cache.Clear()
	}
	sc.cache.Store(key, res)
	return res, nil
}

// decideFresh decides h = Π·W from scratch: the null lattice of h
// mapped through W, size-reduced, then the criterion ladder.
func (sa *SpaceAnalyzer) decideFresh(sc *Scratch, h intmat.Vector) (Result, error) {
	basis, err := sa.freshBasis(sc, h)
	if err != nil {
		return Result{}, err
	}
	return sa.decideFromBasis(sc.ar, basis)
}

// freshBasis returns a size-reduced basis of the conflict-vector
// lattice W·null(h) of [S; Π], arena-backed: it lives until sc's arena
// is next reset, which freshBasis itself does first.
func (sa *SpaceAnalyzer) freshBasis(sc *Scratch, h intmat.Vector) ([]intmat.Vector, error) {
	ar := sc.ar
	// Safe: everything previously handed out by ar is dead — cached
	// Results hold only heap clones.
	ar.Reset()
	inner, err := intmat.RowNullBasisAppend(sc.inner[:0], ar, h)
	if err != nil {
		return nil, err
	}
	sc.inner = inner[:0]
	n := sa.S.Cols()
	basis := sc.basis[:0]
	for _, a := range inner {
		g := ar.Vec(n)
		for t, w := range sa.W {
			c := a[t]
			if c == 0 {
				continue
			}
			for i, wi := range w {
				g[i] = intmat.AddChecked(g[i], intmat.MulChecked(c, wi))
			}
		}
		basis = append(basis, g)
	}
	sc.basis = basis[:0]
	sizeReduceBasis(basis)
	return basis, nil
}

// canonicalizeDirection reduces h in place to the canonical
// representative of its line: divided by gcd, first non-zero entry
// positive. Two h rows with the same canonical direction have the same
// null lattice, hence the same conflict verdict.
func canonicalizeDirection(h intmat.Vector) {
	g := h.GCD()
	if g > 1 {
		for i := range h {
			h[i] /= g
		}
	}
	for _, x := range h {
		if x == 0 {
			continue
		}
		if x < 0 {
			for i := range h {
				h[i] = -h[i]
			}
		}
		return
	}
}
