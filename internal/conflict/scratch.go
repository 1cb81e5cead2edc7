package conflict

import (
	"sync"

	"lodim/internal/intmat"
)

// Scratch carries the per-worker state that makes repeated conflict
// decisions allocation-free: an arena for the decomposition scratch and
// the reused vectors of a decision. Its embedded Memo is the decision
// state DecideScratch uses; DecideMemo takes another one, so a worker
// can serve many space mappings, each keeping its own Memo. A Scratch
// is not safe for concurrent use; the engines keep one per worker
// goroutine.
type Scratch struct {
	Memo
	ar *intmat.Arena
	// built is where bind builds a table before copying it to its memo,
	// so a memo's table takes exactly the storage it needs.
	built conflictTable

	h     intmat.Vector   // Π·W, heap-backed, reused across calls
	hc    intmat.Vector   // canonical direction of h (primitive, first non-zero > 0)
	inner []intmat.Vector // reused header slice for the inner null basis
	basis []intmat.Vector // reused header slice for the combined basis
}

// Memo is the decision state of one SpaceAnalyzer: its conflict-vector
// table and a decision cache keyed by the canonical direction of
// h = Π·W. Neighbouring Π candidates in the lex-ordered searches very
// often produce the same h line — shifting Π by a row of S leaves h
// unchanged entirely, and scalings of h have the same null lattice — so
// the cache turns the dominant per-candidate Hermite reduction into a
// map lookup. A Memo holds no arena and keeps a lone cache entry
// inline, making the map for a second one: a search can keep one per
// space mapping, and most of them store one entry or none.
type Memo struct {
	owner *SpaceAnalyzer
	// The cache: the map once made, else first when held.
	held  bool
	key   intmat.TupleKey
	first Result
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

var (
	scratchPool = sync.Pool{New: func() any { return new(Scratch) }}
	memoPool    = sync.Pool{New: func() any { return new(Memo) }}
)

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

// GetMemo returns a memo from the package pool.
func GetMemo() *Memo { return memoPool.Get().(*Memo) }

// PutMemo releases m to the pool without its cache and table: a
// search keeping a memo per space mapping returns hundreds at once, and
// pooled memos each keeping the largest storage they ever held would
// pin megabytes (a corpus replay of joint searches on two goroutines
// peaked at 19 MB of RSS instead of 14 MB). Drain m's counters first.
func PutMemo(m *Memo) {
	*m = Memo{}
	memoPool.Put(m)
}

// resetCache empties the decision cache at a cost proportional to what
// it holds: a cache not much larger than its contents is cleared in
// place (or left alone when empty), and an oversized one is replaced
// (see scratchKeepSlack). A search whose conflicts the table answers
// may store nothing at all, so an empty cache can be oversized too.
func (m *Memo) resetCache() {
	m.held, m.first = false, Result{}
	if m.cache == nil {
		return
	}
	n := m.cache.Len()
	m.peak = max(m.peak, n)
	if m.peak <= scratchKeepSlack*max(n, scratchKeepMin) {
		if n > 0 {
			m.cache.Clear()
		}
		return
	}
	m.cache, m.peak = intmat.NewVecMap[Result](n), n
}

// TakeStats drains and returns the decision counters: table decisions
// (a conflict found in the conflict-vector table), hit decisions
// (answered incrementally from a previous decomposition) and miss
// decisions (decomposed from scratch).
func (m *Memo) TakeStats() (table, hits, misses int64) {
	table, hits, misses = m.table, m.hits, m.misses
	m.table, m.hits, m.misses = 0, 0, 0
	return table, hits, misses
}

// bind points m at sa, resetting the cache when the analyzer changes
// (the cache key is expressed in coordinates of sa.W) and building sa's
// conflict-vector table on sc when null(S) has dimension tableMinDim or
// more. One memo can thus serve a worker's whole sequence of searches,
// each paying only for the entries the previous one stored.
func (m *Memo) bind(sa *SpaceAnalyzer, sc *Scratch) {
	if m.owner != sa {
		m.owner = sa
		m.resetCache()
		m.tabOK = len(sa.W) >= tableMinDim && sc.built.build(sc.ar, sa.W, sa.Set.Upper) == nil
		if m.tabOK {
			m.tab.copyFrom(&sc.built)
		}
	}
}

// load and store are the decision cache's lookup and insertion.
func (m *Memo) load(key intmat.TupleKey) (Result, bool) {
	switch {
	case m.cache != nil:
		return m.cache.Load(key)
	case m.held && m.key == key:
		return m.first, true
	}
	return Result{}, false
}

func (m *Memo) store(key intmat.TupleKey, res Result) {
	switch {
	case m.cache != nil:
	case !m.held:
		m.held, m.key, m.first = true, key, res
		return
	default:
		m.cache = intmat.NewVecMap[Result](0)
		m.cache.Store(m.key, m.first)
		m.held, m.first = false, Result{}
	}
	m.cache.Store(key, res)
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
// conflict-vector table and the decision cache of sc's own Memo; see
// DecideMemo.
func (sa *SpaceAnalyzer) DecideScratch(sc *Scratch, pi intmat.Vector) (Result, error) {
	return sa.DecideMemo(sc, &sc.Memo, pi)
}

// DecideMemo is Decide with sc's storage and m's conflict-vector table
// and decision cache. It returns exactly the verdict Decide would. When
// m holds sa's table of in-box null(S) vectors (table.go, built by
// bind), a Π that annihilates one of them has a conflict, reported with
// that vector as witness and Method "conflict-table". Every other Π
// goes to the cache: on a miss it runs decideFresh, the routine Decide
// runs; on a hit the stored Result is returned as-is — its verdict is
// valid for every Π with the same h line because the conflict-vector
// lattice W·null(h) depends only on that line, though the Method and
// Witness reflect the candidate that populated the entry. Callers must
// treat the Result (including any Witness) as read-only; it may be
// shared with the cache, and a table witness is valid only until m is
// bound to another analyzer or released.
func (sa *SpaceAnalyzer) DecideMemo(sc *Scratch, m *Memo, pi intmat.Vector) (Result, error) {
	m.bind(sa, sc)
	h, err := sa.project(sc, pi)
	if err != nil {
		return Result{}, err
	}
	if m.tabOK && boxNormFits(pi, sa.Set.Upper) {
		if w, ok := m.tab.scan(h); ok {
			m.table++
			return Result{Witness: w, Method: "conflict-table"}, nil
		}
	}
	hc := sc.hc[:len(h)]
	copy(hc, h)
	canonicalizeDirection(hc)
	key := intmat.KeyFor(hc)
	if res, ok := m.load(key); ok {
		m.hits++
		return res, nil
	}
	m.misses++
	res, err := sa.decideFresh(sc, h)
	if err != nil {
		return Result{}, err
	}
	// The ladder only ever returns heap vectors (Canonical copies), so
	// the Result is safe to retain past the next arena Reset.
	if m.cache != nil && m.cache.Len() >= scratchCacheLimit {
		m.resetCache()
	}
	m.store(key, res)
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
