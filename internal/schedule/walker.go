package schedule

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// piWalker walks the objective levels of Procedure 5.1. Level f holds
// every integer Π with Σ|π_i|·μ_i = f; the walker visits the ones
// passing constraint (5.1), ΠD ≥ 1, in lexicographic order (coordinate
// by coordinate, each from its most negative value up), and skips the
// others without visiting them.
//
// The walk fixes one coordinate at a time and descends into a prefix
// only if, for every dependence column d̄_j, the prefix's partial sum
// plus the most the remaining budget r can add — ⌊r·max_{l≥i}|d_lj|/μ_l⌋
// for the free coordinates i, i+1, … — is at least 1, and the gcd of
// the free coordinates' weights divides r. Neither test cuts a passer.
//
// A degenerate axis (μ_i = 0, a single-point dimension) contributes
// nothing to the objective; it is walked at weight 1 so levels stay
// finite, which over-approximates f by |π_i| on such axes.
//
// A walker belongs to one goroutine. It keeps its storage across levels
// and, through walkerPool, across searches, and it remembers which of
// the levels below barrenLevels it walked to the end without a passer,
// answering them from memory.
type piWalker struct {
	n, m    int
	w       []int64         // weights: μ_i, or 1 on a degenerate axis
	gcd     []int64         // gcd[i] = gcd(w_i, …, w_{n−1})
	d       []int64         // d[i*m+j] = d_ij, D by rows
	cols    []int64         // D by columns, backing depCols
	depCols []intmat.Vector // D's columns, for the searches' own tests
	cuts    []cut           // cuts[i*m+j]: the bound on π_i from column j
	barren  []bool          // barren[f]: level f holds no passer
	pi      intmat.Vector   // the Π being built
	part    []int64         // part[i*m+j] = Σ_{l<i} π_l·d_lj, or math.MinInt64 past int64
	found   bool            // this walk visited a passer
	polls   int
	done    <-chan struct{}
	stopped bool // done was seen closed during this walk
}

// cut is the admissibility test of one coordinate against one column.
// With the rest of the column bounded by a/b per unit of budget, value
// v of π_i with partial sum p and budget r is admissible iff
// v·plus ≥ k (v ≥ 0) or v·minus ≥ k (v ≤ 0), where k = b·(1 − p) − r·a,
// plus = b·d_ij − μ_i·a and minus = b·d_ij + μ_i·a. A column whose
// coefficients pass int64 is loose (b = 0): it admits every value.
type cut struct{ a, b, plus, minus int64 }

// barrenLevels bounds the levels a walker remembers (64 KiB of flags):
// a problem whose columns contradict each other has no passer at any
// level, and its walk settles each level in O(1), so an unbounded memo
// would grow a flag per level until the search's time limit.
const barrenLevels = 1 << 16

var walkerPool = sync.Pool{New: func() any { return new(piWalker) }}

// getWalker returns a pooled walker reset to algo's μ and D.
func getWalker(algo *uda.Algorithm) *piWalker {
	wk := walkerPool.Get().(*piWalker)
	wk.reset(algo)
	return wk
}

func putWalker(wk *piWalker) { walkerPool.Put(wk) }

// reset ties the walker to algo's μ and D, keeping its storage.
func (wk *piWalker) reset(algo *uda.Algorithm) {
	n, m := algo.Dim(), algo.NumDeps()
	wk.n, wk.m = n, m
	wk.w, wk.gcd, wk.d, wk.cols = resize(wk.w, n), resize(wk.gcd, n), resize(wk.d, n*m), resize(wk.cols, n*m)
	wk.depCols, wk.cuts = resize(wk.depCols, m), resize(wk.cuts, n*m)
	for i, g := n-1, int64(0); i >= 0; i-- {
		wk.w[i] = max(algo.Set.Upper[i], 1)
		g = intmat.GCD(wk.w[i], g)
		wk.gcd[i] = g
	}
	for j := range wk.depCols {
		wk.depCols[j] = wk.cols[j*n : (j+1)*n : (j+1)*n]
		// (a, b) = max_{l>i} |d_lj|/μ_l, built from the last coordinate up.
		a, b := uint64(0), uint64(1)
		for i := n - 1; i >= 0; i-- {
			dij := algo.D.At(i, j)
			wk.depCols[j][i], wk.d[i*m+j] = dij, dij
			wk.cuts[i*m+j] = newCut(a, b, dij, wk.w[i])
			ad := uint64(dij)
			if dij < 0 {
				ad = -ad // exact for math.MinInt64 too
			}
			if ratioLess(a, b, ad, uint64(wk.w[i])) {
				a, b = ad, uint64(wk.w[i])
			}
		}
	}
	wk.pi, wk.part = resize(wk.pi, n), resize(wk.part, n*m)
	wk.barren, wk.done = wk.barren[:0], nil
}

func newCut(a, b uint64, d, w int64) cut {
	bd, ok1 := mulOK(int64(b), d)
	wa, ok2 := mulOK(w, int64(a))
	plus, ok3 := addOK(bd, -wa)
	minus, ok4 := addOK(bd, wa)
	if a > math.MaxInt64 || !(ok1 && ok2 && ok3 && ok4) {
		return cut{}
	}
	return cut{a: int64(a), b: int64(b), plus: plus, minus: minus}
}

// ratioLess reports a1/b1 < a2/b2 for b1, b2 > 0, exactly.
func ratioLess(a1, b1, a2, b2 uint64) bool {
	h1, l1 := bits.Mul64(a1, b2)
	h2, l2 := bits.Mul64(a2, b1)
	return h1 < h2 || (h1 == h2 && l1 < l2)
}

// mulOK and addOK return the result and whether it is representable;
// math.MinInt64 counts as unrepresentable, so results negate safely.
func mulOK(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	p := int64(lo) // the product fits iff hi is p's sign extension
	return p, int64(hi) == p>>63 && p != math.MinInt64
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0) && s != math.MinInt64
}

// walk calls fn on each Π of level cost with ΠD ≥ 1, in lexicographic
// order, until fn returns false. It fails with ctx's error when ctx
// ends during the walk (polled every ctxCheckMask+1 steps and once at
// its end; the first poll to see it stops the walk), and with
// *OverflowError when a product ΠD passes int64. fn must not keep pi.
func (wk *piWalker) walk(ctx context.Context, cost int64, fn func(pi intmat.Vector) bool) (err error) {
	if cost < int64(len(wk.barren)) && wk.barren[cost] {
		return nil
	}
	defer intmat.Guard(&err)
	wk.found, wk.done, wk.stopped = false, ctx.Done(), false
	clear(wk.part[:wk.m])
	if cost%wk.gcd[0] == 0 {
		wk.descend(0, cost, fn)
	}
	if wk.stopped || isDone(wk.done) {
		return ctx.Err()
	}
	if !wk.found && cost < barrenLevels {
		wk.barren = append(wk.barren, make([]bool, max(0, cost+1-int64(len(wk.barren))))...)
		wk.barren[cost] = true
	}
	return nil
}

// descend walks the Π below the fixed prefix π_0 … π_{i−1}, with budget
// r left for π_i … π_{n−1} (a multiple of gcd[i]). It reports false
// when the walk stops: fn returned false or the context ended.
func (wk *piWalker) descend(i int, r int64, fn func(pi intmat.Vector) bool) bool {
	if wk.halted() {
		return false
	}
	m, w := wk.m, wk.w[i]
	if i == wk.n-1 {
		// The last coordinate spends the budget exactly: π_i = ∓r/μ_i.
		t := r / w
		for _, v := range [2]int64{-t, t} {
			wk.pi[i] = v
			if wk.passes(v) {
				wk.found = true
				if !fn(wk.pi) {
					return false
				}
			}
			if t == 0 {
				break
			}
		}
		return true
	}
	lo, hi := wk.admissible(i, r, r/w)
	p, q, d, g := wk.part[i*m:(i+1)*m], wk.part[(i+1)*m:(i+2)*m], wk.d[i*m:(i+1)*m], wk.gcd[i+1]
	for v := lo; v <= hi && !wk.stopped; v++ {
		// r and w are multiples of gcd[i], so rest is one of g unless g
		// is larger.
		rest := r - max(v, -v)*w
		if g > wk.gcd[i] && rest%g != 0 {
			continue
		}
		wk.pi[i] = v
		for j := range q {
			q[j] = partial(p[j], v, d[j])
		}
		if !wk.descend(i+1, rest, fn) {
			return false
		}
	}
	return true
}

// halted polls the context every ctxCheckMask+1 steps of the walk and
// reports whether it has ended; once it has, every later call does too.
func (wk *piWalker) halted() bool {
	if wk.polls++; !wk.stopped && wk.polls&ctxCheckMask == 0 {
		wk.stopped = isDone(wk.done)
	}
	return wk.stopped
}

// partial returns p + v·d, or math.MinInt64 when p is or the result
// would be past int64.
func partial(p, v, d int64) int64 {
	vd, ok1 := mulOK(v, d)
	s, ok2 := addOK(p, vd)
	if p == math.MinInt64 || !ok1 || !ok2 {
		return math.MinInt64
	}
	return s
}

// passes is ΠD ≥ 1 for the last coordinate v, tested column by column
// in order with checked arithmetic, as Π·d̄_j would be computed.
func (wk *piWalker) passes(v int64) bool {
	m := wk.m
	d := wk.d[(wk.n-1)*m : wk.n*m]
	for j, p := range wk.part[(wk.n-1)*m : wk.n*m] {
		if p == math.MinInt64 {
			panic(&intmat.OverflowError{Op: "add"})
		}
		if intmat.AddChecked(p, intmat.MulChecked(v, d[j])) <= 0 {
			return false
		}
	}
	return true
}

// admissible returns the range of π_i ∈ [−top, top] every column's cut
// admits. As minus ≥ plus, a column's test is concave in v: with k ≤ 0
// it admits a range around 0, bounded below only when minus > 0 and
// above only when plus < 0; with k > 0 it admits v ≥ ⌈k/plus⌉ when
// plus > 0, v ≤ −⌈k/−minus⌉ when minus < 0, and nothing otherwise. A
// loose column (all zero) and a column whose k passes int64 admit
// every value.
func (wk *piWalker) admissible(i int, r, top int64) (lo, hi int64) {
	m := wk.m
	lo, hi = -top, top
	for j, p := range wk.part[i*m : (i+1)*m] {
		c := &wk.cuts[i*m+j]
		slack, ok0 := addOK(1, -p)
		bp, ok1 := mulOK(c.b, slack)
		ra, ok2 := mulOK(r, c.a)
		k, ok3 := addOK(bp, -ra)
		switch {
		case p == math.MinInt64 || !(ok0 && ok1 && ok2 && ok3):
		case k <= 0:
			if c.minus > 0 {
				lo = max(lo, -(-k / c.minus))
			}
			if c.plus < 0 {
				hi = min(hi, -k/-c.plus)
			}
		case c.plus > 0:
			lo = max(lo, (k-1)/c.plus+1)
		case c.minus < 0:
			hi = min(hi, -((k-1)/-c.minus + 1))
		default:
			return 1, 0
		}
	}
	return lo, hi
}

// isDone polls a context's Done channel without blocking. Unlike
// ctx.Err it takes no lock, so the per-level and per-step checks of the
// searches cost a channel load.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
