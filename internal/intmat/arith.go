package intmat

import (
	"fmt"
	"math"
)

// OverflowError reports that an exact integer computation exceeded the
// range of int64. It is delivered by panic from the low-level checked
// arithmetic helpers and converted to an ordinary error by Guard.
type OverflowError struct {
	Op string // the operation that overflowed, e.g. "mul"
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("intmat: int64 overflow in %s", e.Op)
}

// Guard converts an *OverflowError panic raised inside f into an error.
// Any other panic is re-raised. It is the boundary adapter used by the
// exported error-returning entry points of this package and its clients:
//
//	func Det(m *Matrix) (d int64, err error) {
//		defer intmat.Guard(&err)
//		d = m.Det()
//		return d, nil
//	}
func Guard(err *error) {
	if r := recover(); r != nil {
		if oe, ok := r.(*OverflowError); ok {
			*err = oe
			return
		}
		panic(r)
	}
}

func overflow(op string) {
	panic(&OverflowError{Op: op})
}

// AddChecked returns a+b, panicking with *OverflowError on overflow.
// Pair with Guard at an error-returning boundary.
func AddChecked(a, b int64) int64 { return addChecked(a, b) }

// SubChecked returns a-b, panicking with *OverflowError on overflow.
// Pair with Guard at an error-returning boundary.
func SubChecked(a, b int64) int64 { return subChecked(a, b) }

// MulChecked returns a*b, panicking with *OverflowError on overflow.
// Pair with Guard at an error-returning boundary.
func MulChecked(a, b int64) int64 { return mulChecked(a, b) }

// AbsChecked returns |a|, panicking with *OverflowError when a is
// MinInt64. Pair with Guard at an error-returning boundary.
func AbsChecked(a int64) int64 { return absChecked(a) }

// addChecked returns a+b, panicking with *OverflowError on overflow.
func addChecked(a, b int64) int64 {
	s := a + b
	// Overflow iff a and b share a sign and s does not.
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		overflow("add")
	}
	return s
}

// subChecked returns a-b, panicking with *OverflowError on overflow.
func subChecked(a, b int64) int64 {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		overflow("sub")
	}
	return d
}

// mulChecked returns a*b, panicking with *OverflowError on overflow.
func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		overflow("mul")
	}
	return p
}

// negChecked returns -a, panicking with *OverflowError when a is MinInt64.
func negChecked(a int64) int64 {
	if a == math.MinInt64 {
		overflow("neg")
	}
	return -a
}

// absChecked returns |a|, panicking with *OverflowError when a is MinInt64.
func absChecked(a int64) int64 {
	if a < 0 {
		return negChecked(a)
	}
	return a
}

// GCD returns the non-negative greatest common divisor of a and b, with
// GCD(0, 0) = 0.
func GCD(a, b int64) int64 {
	a, b = absChecked(a), absChecked(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GCDAll returns the non-negative greatest common divisor of all values.
// GCDAll() and GCDAll(0, …, 0) are 0.
func GCDAll(vs ...int64) int64 {
	var g int64
	for _, v := range vs {
		g = GCD(g, v)
		if g == 1 {
			return 1
		}
	}
	return g
}

// LCM returns the non-negative least common multiple of a and b, with
// LCM(x, 0) = 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	return mulChecked(absChecked(a)/g, absChecked(b))
}

// ExtGCD returns g = gcd(a, b) ≥ 0 together with Bézout coefficients
// x, y such that a*x + b*y = g. The coefficients are normalized to the
// minimal-|x| representative (|x| ≤ |b|/(2g) when b ≠ 0), which keeps
// the unimodular transforms built from them small. ExtGCD(0, 0)
// returns (0, 0, 0).
func ExtGCD(a, b int64) (g, x, y int64) {
	// Iterative extended Euclid on absolute values, signs fixed up at the end.
	sa, sb := int64(1), int64(1)
	aa, bb := a, b
	if aa < 0 {
		sa, aa = -1, negChecked(aa)
	}
	if bb < 0 {
		sb, bb = -1, negChecked(bb)
	}
	x0, x1 := int64(1), int64(0)
	y0, y1 := int64(0), int64(1)
	for bb != 0 {
		q := aa / bb
		aa, bb = bb, aa-q*bb
		x0, x1 = x1, subChecked(x0, mulChecked(q, x1))
		y0, y1 = y1, subChecked(y0, mulChecked(q, y1))
	}
	g, x, y = aa, sa*x0, sb*y0
	// Minimality normalization: x' = x - t·(b/g), y' = y + t·(a/g).
	if g != 0 && b != 0 {
		bg, ag := b/g, a/g
		t := roundDiv(x, bg)
		if t != 0 {
			x = subChecked(x, mulChecked(t, bg))
			y = addChecked(y, mulChecked(t, ag))
		}
	}
	return g, x, y
}

// roundDiv returns the integer nearest to a/d (ties away from zero),
// for d ≠ 0.
func roundDiv(a, d int64) int64 {
	ad := absChecked(d)
	half := ad / 2
	if a >= 0 {
		return addChecked(a, half) / d
	}
	return subChecked(a, half) / d
}

// shortens reports whether subtracting the nearest integer multiple of
// a vector p from a vector q strictly shortens q, where qp = ⟨q,p⟩ and
// pp = ⟨p,p⟩ > 0: that is 2|qp| > pp. At a tie, 2|qp| = pp, the step
// keeps the length, and two vectors can trade tie steps forever. The
// size reducers step only when this holds, so every step lowers a
// positive integer squared norm and each reduction reaches a fixpoint.
func shortens(qp, pp int64) bool { return absChecked(qp) > pp/2 }

// SizeReduceStep is one pairwise size-reduction step on vectors, the
// one (*Matrix).sizeReduce takes on columns: where qp = ⟨q,p⟩ and
// pp = ⟨p,p⟩ > 0, it subtracts the nearest integer multiple of p from
// q in place if that strictly shortens q, and reports whether it did.
// The arithmetic is checked; an overflow panics with *OverflowError
// (see Guard).
func SizeReduceStep(q, p Vector, qp, pp int64) bool {
	if !shortens(qp, pp) {
		return false
	}
	t := negChecked(roundDiv(qp, pp))
	for i := range q {
		q[i] = addChecked(q[i], mulChecked(t, p[i]))
	}
	return true
}
