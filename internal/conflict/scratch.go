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

	// hits counts decisions answered from the cache (the "incremental"
	// decompositions of SearchStats); misses counts fresh ones.
	hits, misses int64

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
	sc.hits, sc.misses = 0, 0
	sc.ar.Reset()
	scratchPool.Put(sc)
}

// resetCache empties the decision cache at a cost proportional to what
// it holds: an empty cache is left alone, one not much larger than its
// contents is cleared in place, and an oversized one is replaced (see
// scratchKeepSlack).
func (sc *Scratch) resetCache() {
	if sc.cache == nil {
		return
	}
	n := sc.cache.Len()
	if n == 0 {
		return
	}
	sc.peak = max(sc.peak, n)
	if sc.peak <= scratchKeepSlack*max(n, scratchKeepMin) {
		sc.cache.Clear()
		return
	}
	sc.cache, sc.peak = intmat.NewVecMap[Result](n), n
}

// TakeStats drains and returns the cache counters: hit decisions
// (answered incrementally from a previous decomposition) and miss
// decisions (decomposed from scratch).
func (sc *Scratch) TakeStats() (hits, misses int64) {
	hits, misses = sc.hits, sc.misses
	sc.hits, sc.misses = 0, 0
	return hits, misses
}

// bind points sc at sa, resetting the cache when the analyzer changes
// (the cache key is expressed in coordinates of sa.W). One scratch can
// thus serve a worker's whole sequence of searches, each paying only
// for the entries the previous one stored.
func (sc *Scratch) bind(sa *SpaceAnalyzer) {
	if sc.owner != sa {
		sc.owner = sa
		sc.resetCache()
		if sc.cache == nil {
			sc.cache, sc.peak = intmat.NewVecMap[Result](scratchKeepMin), scratchKeepMin
		}
		q := len(sa.W)
		if cap(sc.h) < q {
			sc.h = make(intmat.Vector, q)
			sc.hc = make(intmat.Vector, q)
		}
	}
}

// DecideScratch is Decide with scratch-backed storage and the decision
// cache. It returns exactly the verdict Decide would: on a cache miss
// the computation is step-for-step the one Decide performs; on a hit
// the stored Result is returned as-is — its verdict is valid for every
// Π with the same h line because the conflict-vector lattice
// W·null(h) depends only on that line, though the Method and Witness
// reflect the candidate that populated the entry. Callers must treat
// the Result (including any Witness) as read-only; it may be shared
// with the cache.
func (sa *SpaceAnalyzer) DecideScratch(sc *Scratch, pi intmat.Vector) (Result, error) {
	sc.bind(sa)
	q := len(sa.W)
	if q == 0 {
		return Result{}, ErrRank
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
		return Result{}, ErrRank
	}
	hc := sc.hc[:q]
	copy(hc, h)
	canonicalizeDirection(hc)
	key := intmat.KeyFor(hc)
	if res, ok := sc.cache.Load(key); ok {
		sc.hits++
		return res, nil
	}
	sc.misses++
	res, err := sa.decideScratchFresh(sc, h, pi)
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

// decideScratchFresh recomputes the decision for h = Π·W with
// arena-backed scratch — the same pipeline as NullBasisFor + the
// criterion ladder, minus the heap traffic.
func (sa *SpaceAnalyzer) decideScratchFresh(sc *Scratch, h intmat.Vector, pi intmat.Vector) (Result, error) {
	ar := sc.ar
	// Safe: everything previously handed out by ar is dead — cached
	// Results hold only heap clones.
	ar.Reset()
	inner, err := intmat.RowNullBasisAppend(sc.inner[:0], ar, h)
	if err != nil {
		return Result{}, err
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
	return sa.decideFromBasis(basis, pi)
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
