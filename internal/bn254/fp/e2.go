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

func mulAccComposed(c0, c1 *Wide, x, y *E2) {
	var ac, bd, cross Wide
	ac.Mul(&x.C0, &y.C0)
	bd.Mul(&x.C1, &y.C1)
	var sx, sy Element
	LooseAdd(&sx, &x.C0, &x.C1)
	LooseAdd(&sy, &y.C0, &y.C1)
	cross.Mul(&sx, &sy)
	cross.Sub(&ac)
	cross.Sub(&bd)
	c0.Add(&ac)
	c0.AddQSquared()
	c0.Sub(&bd)
	c1.Add(&cross)
}
