package conflict

import (
	"math"
	"math/bits"
	"slices"

	"lodim/internal/intmat"
)

// This file implements the walk over the in-box vectors of a lattice
// that decides conflicts exactly, and the conflict-vector table of a
// Memo that it lists. By Theorem 2.2, T = [S; Π] has a conflict iff null(T) holds a γ ≠ 0
// with |γ_i| ≤ μ_i for every i. Every such γ lies in null(S), which
// does not depend on Π, and it lies in null(T) iff Π·γ = 0. So the
// in-box vectors of null(S) can be listed once per space mapping, and
// a candidate Π has a conflict iff it annihilates one of them. Only
// primitive vectors need listing (a multiple in the box puts its
// primitive part in the box), and only one of each ± pair.
//
// A decision scans the table on Π itself, ahead of the projection
// h = Π·W that the cache-and-criterion path needs: a hit decides a
// conflict with witness γ, and most decisions of a search whose S has a
// table are hits. A miss proves Π conflict-free, but the decision then
// takes the usual cache-and-criterion path, so every conflict-free
// verdict keeps the Method that path names.

// tableMinDim is the smallest dimension q = n − k of null(S) that gets
// a table. For q ≤ 2, null(h) has dimension q − 1 ≤ 1, so a fresh
// decision tests at most one conflict vector, and scanning the listed
// vectors costs more as the box grows: with tables for q = 2, the
// fixed-S schedule search of matmul with S = (1, 1, −1) ran 1.5× slower
// at μ = 12 and 11× slower at μ = 56 than without, and the corpus
// searches gained nothing from them (EXPERIMENTS.md).
const tableMinDim = 3

// tableMaxPoints caps the work of a build: the box of the free
// coordinates the walk visits may hold at most this many points.
// Past it the analyzer gets no table and every decision takes the
// cache-and-criterion path. The corpus boxes have at most 343 points;
// on a 14 297-point box a build takes about 1 ms, the time of some 900
// fresh decisions on that analyzer, and the table still paid for
// itself there (EXPERIMENTS.md).
const tableMaxPoints = 1 << 14

// tableMaxDim is the largest q that gets a table.
const tableMaxDim = 8

// conflictTable lists the primitive in-box vectors of null(S), one per
// ± pair, in scan order. Entries found by a scan move to the front:
// neighbouring Π in a level walk tend to share their conflict vector.
type conflictTable struct {
	// id holds the listed vectors' indices into gamma, in scan order.
	id []int32
	// gamma holds vector j, canonical (primitive, first non-zero entry
	// positive), at gamma[j*n : j*n+n]; it never moves once built, so a
	// witness is a view of it.
	gamma []int64
}

// scan returns the first listed γ with Π·γ = 0, nil when there is
// none, and moves its entry to the front. ranked reports that some
// listed γ has Π·γ ≠ 0, which proves Π·W ≠ 0: when it is false after a
// hit, every listed γ is annihilated and the caller must check that Π
// is not a combination of S's rows. The products wrap instead of being
// checked: the caller has checked Σ|π_i|·μ_i < 2^63, which bounds
// |Π·γ| for an in-box γ, so the wrapped sum is zero exactly when Π·γ
// is.
func (t *conflictTable) scan(pi intmat.Vector) (witness intmat.Vector, ranked bool) {
	for e, j := range t.id {
		if t.dot(pi, j) != 0 {
			continue
		}
		if e > 0 {
			copy(t.id[1:e+1], t.id[:e])
			t.id[0] = j
			ranked = true
		} else {
			ranked = slices.ContainsFunc(t.id[1:], func(k int32) bool { return t.dot(pi, k) != 0 })
		}
		n := len(pi)
		lo := int(j) * n
		return intmat.Vector(t.gamma[lo : lo+n : lo+n]), ranked
	}
	return nil, true
}

// dot is Π·γ_j in wrapping arithmetic.
func (t *conflictTable) dot(pi intmat.Vector, j int32) int64 {
	n := len(pi)
	var s int64
	for i, g := range t.gamma[int(j)*n : int(j)*n+n] {
		s += pi[i] * g
	}
	return s
}

// build lists every vector walkBox visits for the null(S) basis w over
// the box |γ_i| ≤ mu_i, reusing t's storage and taking its scratch from
// ar. It fails, leaving no table, when q passes tableMaxDim, when the
// walk's box passes tableMaxPoints (ErrBudget) or when the arithmetic
// overflows int64.
func (t *conflictTable) build(ar *intmat.Arena, w []intmat.Vector, mu intmat.Vector) error {
	t.id, t.gamma = t.id[:0], t.gamma[:0]
	if len(w) > tableMaxDim {
		return ErrBudget
	}
	return walkBox(ar, w, mu, tableMaxPoints, func(_, gamma intmat.Vector) bool {
		t.id = append(t.id, int32(len(t.id)))
		t.gamma = append(t.gamma, gamma...)
		return true
	})
}

// place makes t a copy of b in regions of sl.
func (t *conflictTable) place(b *conflictTable, sl *slab) {
	t.id, t.gamma = sl.ids.take(len(b.id)), sl.words.take(len(b.gamma))
	copy(t.id, b.id)
	copy(t.gamma, b.gamma)
}

// bytes is the storage t's slices hold.
func (t *conflictTable) bytes() int {
	return 4*cap(t.id) + 8*cap(t.gamma)
}

// exactWitness is the exact decision of Theorem 2.2 on a lattice basis
// w: it returns the first vector walkBox visits, the canonical
// non-feasible conflict vector, in ar's storage, or nil when the box
// holds no lattice vector but 0. It fails with ErrBudget when the
// walk's box passes enumBudget points.
func exactWitness(ar *intmat.Arena, w []intmat.Vector, mu intmat.Vector) (witness intmat.Vector, err error) {
	err = walkBox(ar, w, mu, enumBudget, func(_, gamma intmat.Vector) bool {
		witness = gamma
		return false
	})
	return witness, err
}

// walkBox calls visit, until it returns false, on every primitive
// vector γ of the lattice with basis w that lies in the box
// |γ_i| ≤ mu_i, one of each ± pair: γ canonical (first non-zero entry
// positive), with its coordinates β in w (γ = W·β). It picks the
// q = len(w) coordinates F with the smallest box ∏_{i∈F}(2μ_i + 1)
// whose q×q block M of w is nonsingular, walks every γ_F in that box
// with first non-zero entry positive, recovers β = M⁻¹·γ_F through the
// adjugate (kept incrementally along the walk) and visits the integral
// β whose γ = W·β lies in the box and is primitive. Every in-box γ is
// reached, since γ_F determines β. It fails with ErrBudget, visiting
// nothing, when that box holds more than maxPoints points, and with
// *intmat.OverflowError when the arithmetic overflows int64. beta and
// gamma are arena scratch, valid only during the visit.
func walkBox(ar *intmat.Arena, w []intmat.Vector, mu intmat.Vector, maxPoints int64, visit func(beta, gamma intmat.Vector) bool) (err error) {
	defer intmat.Guard(&err)
	q, n := len(w), len(mu)
	if q == 0 {
		return nil
	}
	m := ar.Mat(q, q)
	free := freeCoordinates(ar, m, w, mu, maxPoints)
	if free == nil {
		return ErrBudget
	}
	block(m, w, free)
	det, adj := intmat.DetIn(ar, m), intmat.AdjugateInto(ar.Mat(q, q), ar, m)
	sign := int64(1)
	if det < 0 {
		det, sign = -det, -1
	}
	x := ar.Vec(q)   // γ_F
	num := ar.Vec(q) // sign·adj·γ_F = det·β
	step := ar.Vec(q * q)
	for r, i := range free {
		x[r] = -mu[i]
		for c := range num {
			step[r*q+c] = intmat.MulChecked(sign, adj.At(c, r))
			num[c] = intmat.AddChecked(num[c], intmat.MulChecked(step[r*q+c], x[r]))
		}
	}
	beta, gamma := ar.Vec(q), ar.Vec(n)
	for {
		if first := x.FirstNonZero(); first >= 0 && x[first] > 0 && admit(w, mu, det, num, beta, gamma) && !visit(beta, gamma) {
			return nil
		}
		r := 0
		for ; r < q; r++ {
			col, bound := step[r*q:r*q+q], mu[free[r]]
			if x[r] < bound {
				x[r]++
				for c, d := range col {
					num[c] = intmat.AddChecked(num[c], d)
				}
				break
			}
			x[r] = -bound
			for c, d := range col {
				num[c] = intmat.AddChecked(num[c], intmat.MulChecked(-2*bound, d))
			}
		}
		if r == q {
			return nil
		}
	}
}

// block fills m with the rows free of the basis w: m[r][c] = w[c][free[r]].
func block(m *intmat.Matrix, w []intmat.Vector, free intmat.Vector) {
	for r, i := range free {
		for c, u := range w {
			m.Set(r, c, u[i])
		}
	}
}

// admit decides one walked point: β = num/det must be integral, and
// γ = W·β in the box and primitive. On success beta and gamma hold the
// entry, γ and β negated together when that makes γ canonical.
func admit(w []intmat.Vector, mu intmat.Vector, det int64, num, beta, gamma intmat.Vector) bool {
	for c, v := range num {
		if v%det != 0 {
			return false
		}
		beta[c] = v / det
	}
	for i := range gamma {
		var s int64
		for c, u := range w {
			s = intmat.AddChecked(s, intmat.MulChecked(beta[c], u[i]))
		}
		if intmat.AbsChecked(s) > mu[i] {
			return false
		}
		gamma[i] = s
	}
	if gamma.GCD() != 1 {
		return false
	}
	if gamma[gamma.FirstNonZero()] < 0 {
		for i := range gamma {
			gamma[i] = -gamma[i]
		}
		for c := range beta {
			beta[c] = -beta[c]
		}
	}
	return true
}

// freeCoordinates returns the q = len(w) coordinates whose box
// ∏(2μ_i + 1) is smallest among those whose q×q block of w is
// nonsingular, or nil when every such box passes maxPoints; m is q×q
// scratch. A lattice basis has full column rank, so some block is
// nonsingular. It walks the q-subsets depth first in lexicographic
// order, skipping every extension whose box reaches the best found, on
// storage from ar; the first subset of least box wins.
func freeCoordinates(ar *intmat.Arena, m *intmat.Matrix, w []intmat.Vector, mu intmat.Vector, maxPoints int64) intmat.Vector {
	q, n := len(w), int64(len(mu))
	// pick[:d] is the subset being extended, points[d] its box.
	pick, points, best := ar.Vec(q), ar.Vec(q+1), ar.Vec(q)
	bestPoints, found := maxPoints+1, false
	points[0] = 1
	d, next := 0, int64(0)
	for {
		extended := false
		if d == q {
			block(m, w, pick)
			if intmat.DetIn(ar, m) != 0 {
				copy(best, pick)
				bestPoints, found = points[q], true
			}
		} else {
			// Extend pick[:d] by the first coordinate from next on whose
			// box stays below the best; both factors of that box are at
			// most 2·maxPoints + 1.
			for i := next; i <= n-int64(q-d); i++ {
				if mu[i] >= bestPoints {
					continue
				}
				if p := points[d] * (2*mu[i] + 1); p < bestPoints {
					pick[d], points[d+1] = i, p
					d, next, extended = d+1, i+1, true
					break
				}
			}
		}
		if extended {
			continue
		}
		if d == 0 {
			break
		}
		d--
		next = pick[d] + 1
	}
	if !found {
		return nil
	}
	return best
}

// boxNormFits reports whether Σ|π_i|·μ_i < 2^63, the bound under which
// a table scan's wrapping products are exact.
func boxNormFits(pi, mu intmat.Vector) bool {
	var sum uint64
	for i, p := range pi {
		a := uint64(p)
		if p < 0 {
			a = -a
		}
		hi, lo := bits.Mul64(a, uint64(mu[i]))
		sum += lo
		if hi != 0 || lo > math.MaxInt64 || sum > math.MaxInt64 {
			return false
		}
	}
	return true
}
