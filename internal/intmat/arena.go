package intmat

import "sync"

// This file provides the bump allocator behind the arena-backed hot
// operations (DetIn, AdjugateInto, RowNullBasisAppend) and the conflict
// decisions' scratch. The optimizers decide
// conflict-freeness for thousands of candidate mappings per search, and
// every decision needs a handful of short-lived vectors and small
// matrices; allocating them from the Go heap made the allocator — not
// the arithmetic — the dominant cost of Procedure 5.1 (see DESIGN.md
// §11). An Arena hands out slices from large reusable blocks instead:
// the caller Resets it between candidates (or searches) and steady-state
// evaluation touches the heap not at all.
//
// Ownership discipline (enforced by convention, documented in DESIGN.md
// §11): memory returned by an Arena is valid until the next Reset of
// that Arena. Anything that must outlive the Reset — a witness vector
// stored in a cache, a winning result returned to a caller — must be
// cloned to the heap first. Arenas are not safe for concurrent use; the
// search engines keep one per worker goroutine.

// arenaBlockInts is the minimum capacity (in int64 words) of one arena
// block. The conflict-decision working set for an n-dimensional
// algorithm is O(n²) words, so a single block serves every realistic
// candidate without growth.
const arenaBlockInts = 4096

// Arena is a region allocator for int64 scratch. The zero value is
// ready to use.
type Arena struct {
	blocks [][]int64
	bi     int // index of the block being bumped
	off    int // offset within blocks[bi]

	// mats is a slab of reusable Matrix headers, so Mat does not
	// heap-allocate a header per call in steady state.
	mats []Matrix
	mi   int
}

// Alloc returns a zeroed slice of n int64 words backed by the arena.
// The slice is valid until Reset; its capacity equals its length, so an
// append never bleeds into a neighbouring allocation.
func (ar *Arena) Alloc(n int) []int64 {
	for {
		if ar.bi < len(ar.blocks) {
			b := ar.blocks[ar.bi]
			if ar.off+n <= len(b) {
				s := b[ar.off : ar.off+n : ar.off+n]
				ar.off += n
				for i := range s {
					s[i] = 0
				}
				return s
			}
			ar.bi++
			ar.off = 0
			continue
		}
		sz := arenaBlockInts
		if n > sz {
			sz = n
		}
		ar.blocks = append(ar.blocks, make([]int64, sz))
	}
}

// Vec returns a zeroed Vector of length n backed by the arena.
func (ar *Arena) Vec(n int) Vector { return Vector(ar.Alloc(n)) }

// Mat returns a zeroed rows×cols matrix backed by the arena. The header
// comes from a reusable slab, so steady-state calls allocate nothing.
func (ar *Arena) Mat(rows, cols int) *Matrix {
	if ar.mi == len(ar.mats) {
		ar.mats = append(ar.mats, Matrix{})
	}
	m := &ar.mats[ar.mi]
	ar.mi++
	m.rows, m.cols = rows, cols
	m.a = ar.Alloc(rows * cols)
	return m
}

// Identity returns the n×n identity matrix backed by the arena.
func (ar *Arena) Identity(n int) *Matrix {
	m := ar.Mat(n, n)
	for i := 0; i < n; i++ {
		m.a[i*n+i] = 1
	}
	return m
}

// Reset makes every previous allocation reclaimable without returning
// memory to the Go heap. It must only be called when no live data
// references the arena (see the ownership discipline above).
func (ar *Arena) Reset() {
	ar.bi, ar.off, ar.mi = 0, 0, 0
}

// arenaPool recycles arenas across searches, so short-lived engines
// (one service request, one CLI run) still hit warmed blocks.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena returns a reset arena from the package pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena resets ar and returns it to the package pool. The caller
// must not use ar afterwards.
func PutArena(ar *Arena) {
	ar.Reset()
	arenaPool.Put(ar)
}
