package conflict

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"lodim/internal/intmat"
)

// Scratch carries the per-goroutine state that makes repeated conflict
// decisions allocation-free: an arena for the decomposition scratch,
// the reused vectors of a decision, and the slab that lends storage to
// the memos bound through it. DecideMemo takes the Memo to decide with,
// its embedded one or another, so a goroutine can serve many space
// mappings, each keeping its own Memo. A Scratch is not safe for
// concurrent use; the engines keep one per goroutine.
type Scratch struct {
	Memo
	// table counts the decisions made with sc that a conflict-vector
	// table answered, hits those a cache answered (the "incremental"
	// decompositions of SearchStats), misses the fresh ones.
	table, hits, misses int64

	ar *intmat.Arena
	// built is where bind builds a table before placing it in a memo's
	// storage, so the table takes exactly the storage it needs.
	built conflictTable
	slab  slab

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
// lookup. A Memo owns no storage: its table and cache are regions of
// the slabs of the scratches it was used with (see slab), valid until
// those scratches are Reset. Its zero value is ready to use.
type Memo struct {
	owner *SpaceAnalyzer
	// tab is owner's conflict-vector table when tabOK (table.go).
	tabOK bool
	tab   conflictTable

	// The cache is an open-addressing hash table of canonical h lines,
	// q = len(owner.W) words each: slot i holds its line at
	// keys[i*q : i*q+q], all zero when the slot is free (a canonical
	// line never is), and the line's Result at vals[i]. count is the
	// number of lines held.
	keys  []int64
	vals  []Result
	count int
}

// scratchCacheLimit bounds the decision cache. A search probes at most
// a few thousand distinct h lines; past the limit the cache is assumed
// degenerate and emptied wholesale.
const scratchCacheLimit = 1 << 14

// minCacheSlots is the size of a memo's second cache region; its first
// holds a single line, as most memos store one line or none.
const minCacheSlots = 4

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch from the package pool.
func GetScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	if sc.ar == nil {
		sc.ar = intmat.GetArena()
	}
	return sc
}

// PutScratch resets sc and releases it to the pool.
func PutScratch(sc *Scratch) {
	sc.Reset()
	scratchPool.Put(sc)
}

// Reset makes sc ready for another search, keeping its storage warm:
// its own memo and its counters are dropped, its arena emptied and its
// slab freed, so every memo bound through sc loses its table and cache
// and must not be used again before its next bind. A slab or build
// buffer that grew past slabMaxBytes is dropped instead of kept.
func (sc *Scratch) Reset() {
	sc.Memo = Memo{}
	sc.table, sc.hits, sc.misses = 0, 0, 0
	sc.ar.Reset()
	sc.slab.reset()
	if sc.built.bytes() > slabMaxBytes {
		sc.built = conflictTable{}
	}
}

// TakeStats drains and returns the counters of the decisions made with
// sc, whatever memo they used: table decisions (a conflict found in a
// conflict-vector table), hit decisions (answered incrementally from a
// previous decomposition) and miss decisions (decomposed from scratch).
func (sc *Scratch) TakeStats() (table, hits, misses int64) {
	table, hits, misses = sc.table, sc.hits, sc.misses
	sc.table, sc.hits, sc.misses = 0, 0, 0
	return table, hits, misses
}

// bind points m at sa, emptying the cache when the analyzer changes
// (the cache key is expressed in coordinates of sa.W) and building sa's
// conflict-vector table on sc, in regions of sc's slab, when null(S)
// has dimension tableMinDim or more. A memo rebound before sc's reset
// leaves its old regions to that reset.
func (m *Memo) bind(sa *SpaceAnalyzer, sc *Scratch) {
	if m.owner == sa {
		return
	}
	*m = Memo{owner: sa}
	m.tabOK = len(sa.W) >= tableMinDim && sc.built.build(sc.ar, sa.W, sa.Set.Upper) == nil
	if m.tabOK {
		m.tab.place(&sc.built, &sc.slab)
	}
}

// load returns the cached Result of the canonical line key.
func (m *Memo) load(key intmat.Vector) (Result, bool) {
	if m.count == 0 {
		return Result{}, false
	}
	q, mask := len(key), len(m.vals)-1
	for i, probes := lineHash(key)&mask, 0; probes < len(m.vals); i, probes = (i+1)&mask, probes+1 {
		k := m.keys[i*q : i*q+q]
		if slices.Equal(k, key) {
			return m.vals[i], true
		}
		if isZero(k) {
			break
		}
	}
	return Result{}, false
}

// store caches res under the canonical line key, first emptying a cache
// that holds scratchCacheLimit lines, and returns it as cached: with its
// witness, which the ladder leaves on the arena, copied to sl. The first
// line takes a region of one slot; a cache that would pass three
// quarters full grows.
func (m *Memo) store(key intmat.Vector, res Result, sl *slab) Result {
	if res.Witness != nil {
		w := sl.words.take(len(res.Witness))
		copy(w, res.Witness)
		res.Witness = w
	}
	if m.count >= scratchCacheLimit {
		clear(m.keys)
		clear(m.vals)
		m.count = 0
	}
	if m.count == len(m.vals) || len(m.vals) > 1 && 4*(m.count+1) > 3*len(m.vals) {
		m.grow(len(key), sl)
	}
	m.insert(key, res)
	return res
}

// grow moves the cache into regions of sl with the next size: one slot,
// then minCacheSlots, then twice as many each time; the old regions are
// left to the slab's reset.
func (m *Memo) grow(q int, sl *slab) {
	oldKeys, oldVals := m.keys, m.vals
	slots := 1
	if len(oldVals) > 0 {
		slots = max(2*len(oldVals), minCacheSlots)
	}
	m.keys, m.vals, m.count = sl.words.take(slots*q), sl.results.take(slots), 0
	clear(m.keys)
	clear(m.vals)
	for i, v := range oldVals {
		if k := oldKeys[i*q : i*q+q]; !isZero(k) {
			m.insert(k, v)
		}
	}
}

// insert puts key into its first free slot; the caller has made room.
func (m *Memo) insert(key intmat.Vector, res Result) {
	q, mask := len(key), len(m.vals)-1
	i := lineHash(key) & mask
	for !isZero(m.keys[i*q : i*q+q]) {
		i = (i + 1) & mask
	}
	copy(m.keys[i*q:i*q+q], key)
	m.vals[i] = res
	m.count++
}

// lineHash mixes a line's entries into a slot index.
func lineHash(key intmat.Vector) int {
	x := uint64(len(key))
	for _, v := range key {
		x = (x ^ uint64(v)) * 0x9e3779b97f4a7c15
		x ^= x >> 32
	}
	return int(x & math.MaxInt)
}

func isZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// slab is the storage a scratch lends the memos bound through it: each
// memo's conflict-vector table and decision cache are regions of it,
// one pile per element type. Only the goroutine that owns the scratch
// takes regions; a memo used later on another goroutine reads and
// writes only its own regions. reset frees every region at once.
type slab struct {
	words   pile[int64]  // table coordinates and vectors, cache lines
	ids     pile[int32]  // table entry ids
	results pile[Result] // cached verdicts
}

// slabMaxBytes caps each pile a scratch keeps between searches: a
// search that took more than that from a pile leaves it empty. Every
// joint search of the committed corpus takes less from each pile; the
// conflict tables of its bit-level problems take the most, up to about
// 100 KB of words. The cap bounds the build buffer the same way.
const slabMaxBytes = 128 << 10

// minPile is the smallest array a pile allocates.
const minPile = 64

func (sl *slab) reset() {
	sl.words.reset()
	sl.ids.reset()
	sl.results.reset()
}

// pile hands out regions cut from the end of one array. Regions never
// move: when the array is full, the next region comes from a fresh
// array of twice the size, and the regions already lent stay where they
// are.
type pile[T any] struct {
	buf  []T
	used int // elements taken since the last reset, in every array
}

// take returns a region of n elements. Its capacity is its length, so
// an append never bleeds into a neighbour; its contents are whatever
// the array last held.
func (p *pile[T]) take(n int) []T {
	b := p.buf
	if len(b)+n > cap(b) {
		b = make([]T, 0, max(2*cap(b), n, minPile))
	}
	p.buf, p.used = b[:len(b)+n], p.used+n
	return b[len(b) : len(b)+n : len(b)+n]
}

// reset frees every region and clears the array it keeps, so no stale
// witness stays reachable. The pile keeps one array for what the last
// search took: the current one when it held all of it, a fresh one of
// that size when the search spilled into several, none past
// slabMaxBytes.
func (p *pile[T]) reset() {
	var zero T
	switch {
	case p.used*int(unsafe.Sizeof(zero)) > slabMaxBytes:
		p.buf = nil
	case p.used > cap(p.buf):
		p.buf = make([]T, 0, p.used)
	default:
		clear(p.buf)
		p.buf = p.buf[:0]
	}
	p.used = 0
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
// bound to another analyzer or a scratch it was used with is Reset.
// What m's table and cache need beyond their own regions comes from
// sc's slab.
func (sa *SpaceAnalyzer) DecideMemo(sc *Scratch, m *Memo, pi intmat.Vector) (Result, error) {
	m.bind(sa, sc)
	if m.tabOK && boxNormFits(pi, sa.Set.Upper) {
		if w, ranked := m.tab.scan(pi); w != nil {
			if !ranked {
				if _, err := sa.project(sc, pi); err != nil {
					return Result{}, err
				}
			}
			sc.table++
			return Result{Witness: w, Method: "conflict-table"}, nil
		}
	}
	h, err := sa.project(sc, pi)
	if err != nil {
		return Result{}, err
	}
	hc := sc.hc[:len(h)]
	copy(hc, h)
	canonicalizeDirection(hc)
	if res, ok := m.load(hc); ok {
		sc.hits++
		return res, nil
	}
	sc.misses++
	res, err := sa.decideFresh(sc, h)
	if err != nil {
		return Result{}, err
	}
	return m.store(hc, res, &sc.slab), nil
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
