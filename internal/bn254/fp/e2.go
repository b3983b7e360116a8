package fp

// E2 is the coefficient pair C0 + C1·i of an Fp2 = Fp[i]/(i² + 1) element;
// bn254.Fp2 has its underlying type. Each operation is one branch-free
// kernel call where the per-coefficient composition (the *Composed
// functions: the portable path and the differential oracle) makes two to ten.
type E2 struct{ C0, C1 Element }

// Add sets z = x + y.
func (z *E2) Add(x, y *E2) { addE2(z, x, y) }

// Sub sets z = x − y.
func (z *E2) Sub(x, y *E2) { subE2(z, x, y) }

// Double sets z = 2x.
func (z *E2) Double(x *E2) { doubleE2(z, x) }

// MulByXi sets z = ξ·x for the sextic non-residue ξ = 9 + i:
// (a + bi)(9 + i) = (9a − b) + (a + 9b)i.
func (z *E2) MulByXi(x *E2) { mulByXiE2(z, x) }

// Mul sets z = x·y by Karatsuba: with ac = x.C0·y.C0 and bd = x.C1·y.C1,
// (a + bi)(c + di) = (ac − bd) + ((a + b)(c + d) − ac − bd)i, three
// base-field products instead of four.
func (z *E2) Mul(x, y *E2) { mulE2(z, x, y) }

// Square sets z = x² = (a + b)(a − b) + 2ab·i, two base-field products.
func (z *E2) Square(x *E2) { squareE2(z, x) }

// MulAcc adds x·y to the unreduced accumulators (c0, c1) by Karatsuba on
// wide limbs, with ac = x.C0·y.C0, bd = x.C1·y.C1 and the loose sums
// s = x.C0 + x.C1, s' = y.C0 + y.C1 (< 2q, four limbs):
//
//	c0 += ac + q² − bd   (the q² pad keeps the difference non-negative;
//	                      the net is ≤ 2q², the peak before − bd one q² more)
//	c1 += s·s' − ac − bd (exact: s·s' = ac + ad + bc + bd, so no pad, and
//	                      the net ad + bc ≤ 2q² is formed before it is added)
func MulAcc(c0, c1 *Wide, x, y *E2) { mulAccE2(c0, c1, x, y) }

func addE2Composed(z, x, y *E2) {
	z.C0.Add(&x.C0, &y.C0)
	z.C1.Add(&x.C1, &y.C1)
}

func subE2Composed(z, x, y *E2) {
	z.C0.Sub(&x.C0, &y.C0)
	z.C1.Sub(&x.C1, &y.C1)
}

func doubleE2Composed(z, x *E2) {
	z.C0.Double(&x.C0)
	z.C1.Double(&x.C1)
}

// mulByXiComposed forms 9a and 9b by three doublings and an addition each.
func mulByXiComposed(z, x *E2) {
	var a9, b9, c0 Element
	a9.Double(&x.C0)
	a9.Double(&a9)
	a9.Double(&a9)
	a9.Add(&a9, &x.C0) // 9a
	b9.Double(&x.C1)
	b9.Double(&b9)
	b9.Double(&b9)
	b9.Add(&b9, &x.C1) // 9b
	c0.Sub(&a9, &x.C1)
	z.C1.Add(&b9, &x.C0)
	z.C0 = c0
}

func mulE2Composed(z, x, y *E2) {
	var t1, t2, s1, s2 Element
	t1.Mul(&x.C0, &y.C0)
	t2.Mul(&x.C1, &y.C1)
	s1.Add(&x.C0, &x.C1)
	s2.Add(&y.C0, &y.C1)
	s1.Mul(&s1, &s2)
	s1.Sub(&s1, &t1)
	s1.Sub(&s1, &t2)
	z.C0.Sub(&t1, &t2)
	z.C1 = s1
}

func squareE2Composed(z, x *E2) {
	var sum, diff, ab Element
	sum.Add(&x.C0, &x.C1)
	diff.Sub(&x.C0, &x.C1)
	ab.Mul(&x.C0, &x.C1)
	z.C0.Mul(&sum, &diff)
	z.C1.Double(&ab)
}

func mulAccComposed(c0, c1 *Wide, x, y *E2) {
	var ac, bd, cross Wide
	ac.Mul(&x.C0, &y.C0)
	bd.Mul(&x.C1, &y.C1)
	var sx, sy Element
	looseAdd(&sx, &x.C0, &x.C1)
	looseAdd(&sy, &y.C0, &y.C1)
	cross.Mul(&sx, &sy)
	cross.sub(&ac)
	cross.sub(&bd)
	c0.add(&ac)
	c0.addQSquared()
	c0.sub(&bd)
	c1.add(&cross)
}
