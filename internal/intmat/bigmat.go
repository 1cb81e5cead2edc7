package intmat

import "math/big"

// bigMatrix is the arbitrary-precision working representation used
// internally by HermiteNormalForm. Only the handful of column
// operations the elimination needs are implemented.
type bigMatrix struct {
	rows, cols int
	a          []*big.Int
	tmp        big.Int // colDot's product scratch
}

func newBigMatrix(m *Matrix) *bigMatrix {
	b := &bigMatrix{rows: m.rows, cols: m.cols, a: make([]*big.Int, m.rows*m.cols)}
	for i := range b.a {
		b.a[i] = big.NewInt(m.a[i])
	}
	return b
}

func newBigIdentity(n int) *bigMatrix {
	b := &bigMatrix{rows: n, cols: n, a: make([]*big.Int, n*n)}
	for i := range b.a {
		b.a[i] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		b.a[i*n+i].SetInt64(1)
	}
	return b
}

func (b *bigMatrix) at(i, j int) *big.Int { return b.a[i*b.cols+j] }

func (b *bigMatrix) swapCols(i, j int) {
	if i == j {
		return
	}
	for r := 0; r < b.rows; r++ {
		b.a[r*b.cols+i], b.a[r*b.cols+j] = b.a[r*b.cols+j], b.a[r*b.cols+i]
	}
}

func (b *bigMatrix) negCol(j int) {
	for r := 0; r < b.rows; r++ {
		b.a[r*b.cols+j].Neg(b.a[r*b.cols+j])
	}
}

// addColMultiple performs col_dst += c · col_src.
func (b *bigMatrix) addColMultiple(dst, src int, c *big.Int) {
	var t big.Int
	for r := 0; r < b.rows; r++ {
		t.Mul(c, b.a[r*b.cols+src])
		b.a[r*b.cols+dst].Add(b.a[r*b.cols+dst], &t)
	}
}

// combineCols applies the 2×2 column transform
//
//	[col_i, col_j] ← [x·col_i + y·col_j,  u·col_i + v·col_j].
func (b *bigMatrix) combineCols(i, j int, x, y, u, v *big.Int) {
	var t1, t2, ni, nj big.Int
	for r := 0; r < b.rows; r++ {
		ai, aj := b.a[r*b.cols+i], b.a[r*b.cols+j]
		t1.Mul(x, ai)
		t2.Mul(y, aj)
		ni.Add(&t1, &t2)
		t1.Mul(u, ai)
		t2.Mul(v, aj)
		nj.Add(&t1, &t2)
		ai.Set(&ni)
		aj.Set(&nj)
	}
}

// colDot sets dst to the inner product of columns i and j and returns
// it.
func (b *bigMatrix) colDot(dst *big.Int, i, j int) *big.Int {
	dst.SetInt64(0)
	for r := 0; r < b.rows; r++ {
		b.tmp.Mul(b.a[r*b.cols+i], b.a[r*b.cols+j])
		dst.Add(dst, &b.tmp)
	}
	return dst
}

// sizeReduce shrinks the entries of the multiplier U in place without
// changing H = T·U. Two degrees of freedom exist: (1) the trailing
// null-space columns k…n-1 (whose H columns are zero) may be combined
// among themselves by any unimodular transform, and (2) any integral
// multiple of a null column may be added to any other column, since
// T·(null column) = 0. We apply Gaussian-style pairwise size reduction
// to the null columns and then Babai-style rounding of the pivot
// columns against them. Without this step the pairwise gcd elimination
// can leave U with entries exponentially larger than necessary.
//
// A step is taken only when it strictly shortens the reduced column:
// 2|⟨q,p⟩| > ⟨p,p⟩, tested as |⟨q,p⟩| > ⌊⟨p,p⟩/2⌋ (see shortens). A
// tie step, 2|⟨q,p⟩| = ⟨p,p⟩, keeps the length, and two columns such
// as (−1,1,0,0) and (−1,0,1,0) would trade tie steps until the sweep
// cap. With the rule every step lowers a positive integer squared
// norm, so each phase reaches a fixpoint; the sweep caps only bound
// the work.
func (b *bigMatrix) sizeReduce(k int) {
	n := b.cols
	if k >= n {
		return
	}
	var pp, half, qp big.Int
	// Phase 1: pairwise reduction of the null columns until fixpoint.
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for p := k; p < n; p++ {
			if b.colDot(&pp, p, p).Sign() == 0 {
				continue
			}
			half.Rsh(&pp, 1)
			for q := k; q < n; q++ {
				if p == q {
					continue
				}
				if b.colDot(&qp, q, p).CmpAbs(&half) <= 0 {
					continue // the step would not shorten column q
				}
				t := bigRoundDiv(&qp, &pp)
				t.Neg(t)
				b.addColMultiple(q, p, t)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Phase 2: reduce the pivot columns against the null lattice.
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for p := k; p < n; p++ {
			if b.colDot(&pp, p, p).Sign() == 0 {
				continue
			}
			half.Rsh(&pp, 1)
			for j := 0; j < k; j++ {
				if b.colDot(&qp, j, p).CmpAbs(&half) <= 0 {
					continue
				}
				t := bigRoundDiv(&qp, &pp)
				t.Neg(t)
				b.addColMultiple(j, p, t)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// toMatrix converts back to an int64 Matrix, panicking with
// *OverflowError if any entry does not fit.
func (b *bigMatrix) toMatrix() *Matrix {
	m := New(b.rows, b.cols)
	for i, v := range b.a {
		if !v.IsInt64() {
			overflow("HNF result entry")
		}
		m.a[i] = v.Int64()
	}
	return m
}

// bigExtGCD returns g = gcd(a, b) > 0 and minimal Bézout coefficients
// x, y with a·x + b·y = g. Both a and b are expected non-zero by the
// single call site; minimality of x (|x| ≤ |b|/(2g) after reduction)
// keeps the unimodular column transforms — and therefore the entries of
// the multiplier U — as small as the algorithm allows.
func bigExtGCD(a, b *big.Int) (g, x, y *big.Int) {
	g, x, y = new(big.Int), new(big.Int), new(big.Int)
	g.GCD(x, y, new(big.Int).Abs(a), new(big.Int).Abs(b))
	if a.Sign() < 0 {
		x.Neg(x)
	}
	if b.Sign() < 0 {
		y.Neg(y)
	}
	// Reduce x modulo b/g to the least-absolute-value representative,
	// adjusting y to preserve the identity.
	bg := new(big.Int).Quo(b, g)
	ag := new(big.Int).Quo(a, g)
	if bg.Sign() != 0 {
		q := bigRoundDiv(x, bg)
		if q.Sign() != 0 {
			x.Sub(x, new(big.Int).Mul(q, bg))
			y.Add(y, new(big.Int).Mul(q, ag))
		}
	}
	return g, x, y
}

// bigFloorDiv returns ⌊a/d⌋ for d > 0.
func bigFloorDiv(a, d *big.Int) *big.Int {
	q := new(big.Int)
	m := new(big.Int)
	q.DivMod(a, d, m) // Euclidean: 0 ≤ m < |d|; with d > 0 this is floor division
	return q
}

// bigRoundDiv returns the integer nearest to a/d (ties away from zero),
// the arbitrary-precision roundDiv.
func bigRoundDiv(a, d *big.Int) *big.Int {
	two := big.NewInt(2)
	ad := new(big.Int).Abs(d)
	half := new(big.Int).Quo(ad, two)
	num := new(big.Int)
	if a.Sign() >= 0 {
		num.Add(a, half)
	} else {
		num.Sub(a, half)
	}
	return new(big.Int).Quo(num, d)
}
