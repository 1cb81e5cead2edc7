package schedule

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// piWalker walks the objective levels of Procedure 5.1. Level f holds
// every integer Π with Σ|π_i|·μ_i = f; the walker visits the ones
// passing constraint (5.1), ΠD ≥ 1, in lexicographic order (coordinate
// by coordinate, each from its most negative value up), each with its
// ordinal among all Π of the level, and counts the others without
// visiting them. A search reporting those ordinals therefore counts
// exactly the Π a walk of the raw level would have seen.
//
// The walk fixes one coordinate at a time and descends into a prefix
// only if, for every dependence column d̄_j, the prefix's partial sum
// plus the most the remaining budget r can add — ⌊r·max_{l≥i}|d_lj|/μ_l⌋
// for the free coordinates i, i+1, … — is at least 1. That bound never
// cuts a passer. The Π it cuts are counted by a DP over the budget's
// compositions: N_i(r), the number of suffixes (π_i, …, π_{n−1}) with
// Σ|π_l|·μ_l = r, and its stride sum P_i(r) = Σ_{t≥0} N_{i+1}(r − t·μ_i),
// which counts any run of cut values of π_i in O(1).
//
// A degenerate axis (μ_i = 0, a single-point dimension) contributes
// nothing to the objective; it is walked at weight 1 so levels stay
// finite, which over-approximates f by |π_i| on such axes.
//
// The tables take 2n + 1 words per budget up to the level. They stop
// growing at walkerMaxWords; a level past that runs the same pruned
// walk, and the counts of budgets past the tables are computed from the
// recurrences as they are needed (the last two coordinates in closed
// form), in constant memory.
//
// A walker belongs to one goroutine. It keeps its tables across levels
// and, through walkerPool, across searches, and it remembers the levels
// within the tables it walked to the end without a passer, answering
// them from memory.
type piWalker struct {
	n, m    int
	w       []int64         // weights: μ_i, or 1 on a degenerate axis
	tabCost int64           // the first level that grows no table
	d       []int64         // d[i*m+j] = d_ij, D by rows
	cols    []int64         // D by columns, backing depCols
	depCols []intmat.Vector // D's columns, for the searches' own tests
	cuts    []cut           // cuts[i*m+j]: the bound on π_i from column j
	tab     []int64         // per budget r: N_0(r)…N_n(r), then P_0(r)…P_{n−1}(r)
	rows    int64           // the budgets tab holds: 0 … rows−1
	barren  []int64         // barren[f]: 1 + the size of level f if it holds no passer; 0 unknown
	pi      intmat.Vector   // the Π being built
	part    []int64         // part[i*m+j] = Σ_{l<i} π_l·d_lj, or math.MinInt64 past int64
	ord     int64           // Π of the level before the walk's position
	passers int64           // passers visited in this walk
	polls   int
	done    <-chan struct{}
}

// cut is the admissibility test of one coordinate against one column.
// With the rest of the column bounded by a/b per unit of budget, value
// v of π_i with partial sum p and budget r is admissible iff
// v·plus ≥ k (v ≥ 0) or v·minus ≥ k (v ≤ 0), where k = b·(1 − p) − r·a,
// plus = b·d_ij − μ_i·a and minus = b·d_ij + μ_i·a. A column whose
// coefficients pass int64 is loose (b = 0): it admits every value.
type cut struct{ a, b, plus, minus int64 }

// walkerPoolWords caps the table a pooled walker keeps: a walker that
// walked past it is dropped rather than pinned in the pool.
const walkerPoolWords = 1 << 16

// walkerMaxWords caps a walker's table, 2n + 1 words per level (8 MiB).
// A walk settles a level whose first coordinate admits no value in O(1),
// so a problem whose columns contradict each other would otherwise race
// through levels at a table row each. A level past the cap grows no
// table: a count the tables do not hold costs O(1) for n ≤ 2 and
// O(r^(n−2)) above, less than the unpruned enumeration spent on the Π
// it counts.
const walkerMaxWords = 1 << 20

var walkerPool = sync.Pool{New: func() any { return new(piWalker) }}

// getWalker returns a pooled walker reset to algo's μ and D.
func getWalker(algo *uda.Algorithm) *piWalker {
	wk := walkerPool.Get().(*piWalker)
	wk.reset(algo)
	return wk
}

func putWalker(wk *piWalker) {
	if cap(wk.tab) <= walkerPoolWords {
		walkerPool.Put(wk)
	}
}

// reset ties the walker to algo's μ and D, keeping its storage.
func (wk *piWalker) reset(algo *uda.Algorithm) {
	n, m := algo.Dim(), algo.NumDeps()
	wk.n, wk.m = n, m
	wk.w, wk.d, wk.cols = resize(wk.w, n), resize(wk.d, n*m), resize(wk.cols, n*m)
	wk.depCols, wk.cuts = resize(wk.depCols, m), resize(wk.cuts, n*m)
	for i, u := range algo.Set.Upper {
		wk.w[i] = max(u, 1)
	}
	wk.tabCost = walkerMaxWords / int64(2*n+1)
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
	wk.tab, wk.rows, wk.barren, wk.done = wk.tab[:0], 0, wk.barren[:0], nil
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

// count returns N_i(r); stride returns P_i(x), 0 for x < 0. The tables
// answer the budgets they hold, countFree and strideFree the others.
func (wk *piWalker) count(i int, r int64) int64 {
	if r < wk.rows {
		return wk.tab[r*int64(2*wk.n+1)+int64(i)]
	}
	return wk.countFree(i, r)
}

func (wk *piWalker) stride(i int, x int64) int64 {
	if x < 0 {
		return 0
	}
	if x < wk.rows {
		return wk.tab[x*int64(2*wk.n+1)+int64(wk.n+1+i)]
	}
	return wk.strideFree(i, x)
}

// countFree and strideFree compute count and stride from the
// recurrences grow fills the tables by: N_{n−1}(r) is 1 at r = 0 and 2
// at the other multiples of w_{n−1}, N_i(r) = N_{i+1}(r) + 2·P_i(r − w_i),
// and P_i(x) = N_{i+1}(x) + P_i(x − w_i). For i = n−2, P_i(x) counts
// the t ≤ x/w_{n−2} with w_{n−1} | x − t·w_{n−2}: with g their gcd, an
// arithmetic progression t ≡ (x/g)·inv (mod w_{n−1}/g), inv the inverse
// of w_{n−2}/g. Every such t adds 2 but t = x/w_{n−2} (budget 0 left),
// which adds 1. Above that P_i unrolls to a loop that ends in the
// tables, polling the context; once it has ended, the loop returns a
// partial sum the walk drops.
func (wk *piWalker) countFree(i int, r int64) int64 {
	if i == wk.n-1 {
		switch {
		case r == 0:
			return 1
		case r%wk.w[i] == 0:
			return 2
		}
		return 0
	}
	p := wk.stride(i, r-wk.w[i])
	return satAdd(wk.count(i+1, r), satAdd(p, p))
}

func (wk *piWalker) strideFree(i int, x int64) int64 {
	w, total := wk.w[i], int64(0)
	if i == wk.n-2 {
		g, inv, _ := intmat.ExtGCD(w, wk.w[i+1])
		if x%g != 0 {
			return 0
		}
		mod := wk.w[i+1] / g
		hi, lo := bits.Mul64(uint64(x/g%mod), uint64(inv%mod+mod))
		if t0 := int64(bits.Rem64(hi, lo, uint64(mod))); t0 <= x/w {
			k := (x/w-t0)/mod + 1
			if total = satAdd(k, k); x%w == 0 && total < math.MaxInt64 {
				total--
			}
		}
		return total
	}
	for ; x >= wk.rows; x -= w {
		if wk.polls++; wk.polls&ctxCheckMask == 0 && isDone(wk.done) {
			return total
		}
		total = satAdd(total, wk.count(i+1, x))
	}
	return satAdd(total, wk.stride(i, x))
}

// satAdd adds two counts, saturating at math.MaxInt64, which stands for
// every count past int64; exact returns a count, failing with
// *OverflowError on a saturated one.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func exact(c int64) int64 {
	if c == math.MaxInt64 {
		panic(&intmat.OverflowError{Op: "count"})
	}
	return c
}

// grow extends the DP tables to every budget up to cost.
func (wk *piWalker) grow(cost int64) {
	n, row := wk.n, int64(2*wk.n+1)
	from := wk.rows
	if from > cost {
		return
	}
	wk.tab, wk.rows = slices.Grow(wk.tab, int((cost+1-from)*row))[:(cost+1)*row], cost+1
	for r := from; r <= cost; r++ {
		wk.tab[r*row+int64(n)] = 0
		if r == 0 {
			wk.tab[n] = 1
		}
		for i := n - 1; i >= 0; i-- {
			next, prev := wk.count(i+1, r), wk.stride(i, r-wk.w[i])
			wk.tab[r*row+int64(n+1+i)] = satAdd(next, prev)
			wk.tab[r*row+int64(i)] = satAdd(next, satAdd(prev, prev))
		}
	}
}

// walk calls fn on each Π of level cost with ΠD ≥ 1, in lexicographic
// order, with its ordinal among all Π of the level, until fn returns
// false. It returns the count a walk of the raw level reports: the
// stopping Π's ordinal + 1, or else the level's size. It fails with
// ctx's error when ctx ends during the walk (polled every
// ctxCheckMask+1 steps and once at its end), and with *OverflowError
// when a count or a product ΠD passes int64. fn must not keep pi.
func (wk *piWalker) walk(ctx context.Context, cost int64, fn func(pi intmat.Vector, ord int64) bool) (_ int64, err error) {
	if cost < int64(len(wk.barren)) && wk.barren[cost] > 0 {
		return wk.barren[cost] - 1, nil
	}
	defer intmat.Guard(&err)
	if cost < wk.tabCost {
		wk.grow(cost)
	}
	wk.ord, wk.passers, wk.done = 0, 0, ctx.Done()
	clear(wk.part[:wk.m])
	stopped := wk.count(0, cost) > 0 && !wk.descend(0, cost, fn)
	if isDone(wk.done) {
		return wk.ord, ctx.Err()
	}
	if !stopped && cost < wk.tabCost && wk.passers == 0 && wk.ord < math.MaxInt64 {
		wk.barren = append(wk.barren, make([]int64, max(0, cost+1-int64(len(wk.barren))))...)
		wk.barren[cost] = wk.ord + 1
	}
	return wk.ord, nil
}

// descend walks the Π below the fixed prefix π_0 … π_{i−1}, with budget
// r left for π_i … π_{n−1} (N_i(r) > 0). It reports false when the walk
// stops: fn returned false or the context ended.
func (wk *piWalker) descend(i int, r int64, fn func(pi intmat.Vector, ord int64) bool) bool {
	if wk.polls++; wk.polls&ctxCheckMask == 0 && isDone(wk.done) {
		return false
	}
	m, w := wk.m, wk.w[i]
	if i == wk.n-1 {
		// The last coordinate spends the budget exactly: π_i = ∓r/μ_i.
		t := r / w
		for _, v := range [2]int64{-t, t} {
			wk.pi[i] = v
			if wk.passes(v) {
				wk.passers++
				if !fn(wk.pi, wk.ord) {
					wk.ord++
					return false
				}
			}
			if wk.ord++; t == 0 {
				break
			}
		}
		return true
	}
	top := r / w
	lo, hi := wk.admissible(i, r, top)
	if lo > hi {
		wk.ord = intmat.AddChecked(wk.ord, exact(wk.count(i, r)))
		return true
	}
	wk.ord = intmat.AddChecked(wk.ord, wk.values(i, r, -top, lo-1))
	p, q, d := wk.part[i*m:(i+1)*m], wk.part[(i+1)*m:(i+2)*m], wk.d[i*m:(i+1)*m]
	for v := lo; v <= hi; v++ {
		rest := r - max(v, -v)*w
		if wk.count(i+1, rest) == 0 {
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
	wk.ord = intmat.AddChecked(wk.ord, wk.values(i, r, hi+1, top))
	return true
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

// values counts the Π below the node (i, r) with π_i in [a, b], where
// −top ≤ a and b ≤ top: Σ_v N_{i+1}(r − |v|·μ_i), summed over |v| in
// [t0, t1] on each side of zero from the stride sums.
func (wk *piWalker) values(i int, r, a, b int64) int64 {
	total, w := int64(0), wk.w[i]
	for _, t := range [2][2]int64{{max(-b, 1), -a}, {max(a, 0), b}} {
		if t[0] <= t[1] {
			total = intmat.AddChecked(total, exact(wk.stride(i, r-t[0]*w))-wk.stride(i, r-t[1]*w-w))
		}
	}
	return total
}

// firstValidLevel returns the lowest level in [1, maxCost] holding a Π
// with ΠD ≥ 1, or −1 when there is none. Since total time is 1 + f,
// one plus it lower-bounds the time of every schedule.
func (wk *piWalker) firstValidLevel(ctx context.Context, maxCost int64) (int64, error) {
	for cost := int64(1); cost <= maxCost; cost++ {
		found := false
		if _, err := wk.walk(ctx, cost, func(intmat.Vector, int64) bool {
			found = true
			return false
		}); err != nil {
			return 0, err
		}
		if found {
			return cost, nil
		}
	}
	return -1, nil
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
