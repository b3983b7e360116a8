package bn254

import (
	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// GT is an element of the order-r target group (the cyclotomic subgroup of
// Fp12*). Values are produced by Pair and combined with Mul/Exp.
type GT struct {
	v *Fp12
}

// Equal reports whether z and x represent the same GT element.
func (z *GT) Equal(x *GT) bool { return z.v.Equal(x.v) }

// IsOne reports whether z is the identity (false for nil: a point off G2).
func (z *GT) IsOne() bool { return z != nil && z.v.IsOne() }

// Mul sets z = a·b.
func (z *GT) Mul(a, b *GT) *GT {
	z.v = new(Fp12).Mul(a.v, b.v)
	return z
}

// Exp sets z = a^k (a^-k is Exp by k's negation: GT has order r). GT
// elements are unitary, so the ladder runs on cyclotomic squarings with a
// signed-window recoding.
func (z *GT) Exp(a *GT, k *fr.Element) *GT {
	opCounters.gtExps.Add(1)
	var buf [wnafMaxDigits]int8
	z.v = new(Fp12).ExpCyclotomic(a.v, wnafDigits(buf[:0], k.Limbs(), cycWindow))
	return z
}

// Marshal encodes z as the 12 Fp coefficients, 32 bytes each.
func (z *GT) Marshal() []byte {
	out := make([]byte, 12*32)
	for k := 0; k < 6; k++ {
		c0, c1 := z.v.C[k].C0.Bytes(), z.v.C[k].C1.Bytes()
		copy(out[64*k:64*k+32], c0[:])
		copy(out[64*k+32:64*k+64], c1[:])
	}
	return out
}

// lineEval is the sparse Fp12 element c0 + c1·w + c3·w³ of a Miller line,
// unevaluated as a projective step returns it or evaluated by at. In the
// affine (naive) path c0 has a zero i-component; the projective path scales
// the line by an Fp2 factor, which the final exponentiation kills.
type lineEval struct {
	c0 Fp2
	c1 Fp2
	c3 Fp2
}

// mulByLine sets z = z·(c0 + c1·w + c3·w³), one kernel call with the
// sparsity hard-coded (fp.MulBySparse): 18 Fp2 products, each output
// coefficient reduced once. The dense equivalent (expand the line to a full
// Fp12, then Mul) is the oracle in the differential tests.
func (z *Fp12) mulByLine(l *lineEval) *Fp12 { return z.mulBySparse(&l.c0, &l.c1, &l.c3) }

// mulBySparse is mulByLine on loose coefficients, where a nil c0 stands for
// 1: a replayed, normalised line (lines.go) then skips the six w⁰ products
// and adds z.C[k] after the reduction instead — 12 Fp2 products.
func (z *Fp12) mulBySparse(c0, c1, c3 *Fp2) *Fp12 {
	opCounters.sparseMuls.Add(1)
	fp.MulBySparse(e12(z), e2(c0), e2(c1), e2(c3))
	return z
}

// g2Proj is the Miller-loop accumulator in homogeneous projective
// coordinates (X : Y : Z), affine (X/Z, Y/Z). Unlike the affine
// doubleStep/addStep oracle (oracle_test.go) this needs no per-step Fp2
// inversion — with Montgomery arithmetic each of those cost a
// ~380-multiplication Fermat ladder, which dominated the whole Miller loop.
type g2Proj struct {
	x, y, z Fp2
}

func (p *g2Proj) fromAffine(q *G2) {
	p.x = q.X
	p.y = q.Y
	p.z = *Fp2One()
}

// is reports whether p is the affine point q ≠ O.
func (p *g2Proj) is(q *G2) bool {
	var t Fp2
	return !p.z.IsZero() && p.x.Equal(t.Mul(&q.X, &p.z)) && p.y.Equal(t.Mul(&q.Y, &p.z))
}

// twistB3 is 3·b', cached for the doubling step.
var twistB3 = new(Fp2).Add(twistB, new(Fp2).Add(twistB, twistB))

// doubleStepProj doubles p in place and returns the tangent line in l,
// not yet evaluated at a G1 point (lineEval.at does that). Formulas follow
// Costello–Lange–Naehrig (eprint 2010/526) for y² = x³ + b': with
// A = XY/2, B = Y², C = Z², E = 3b'C, F = 3E, G = (B+F)/2,
// H = (Y+Z)² - B - C:
//
//	X₃ = A(B-F), Y₃ = G² - 3E², Z₃ = BH
//
// and the line (up to the Fp2 factor Z, which the final exponentiation
// kills) is -H·yP + 3X²·xP·w + (E-B)·w³.
func (p *g2Proj) doubleStepProj(l *lineEval) {
	opCounters.lineDoubles.Add(1)
	var a, b, c, e, f, g, h, i, j, ee, t Fp2
	a.Mul(&p.x, &p.y)
	a.Halve(&a)
	b.Square(&p.y)
	c.Square(&p.z)
	e.Mul(&c, twistB3)
	f.Add(&e, &e)
	f.Add(&f, &e)
	g.Add(&b, &f)
	g.Halve(&g)
	h.Add(&p.y, &p.z)
	h.Square(&h)
	t.Add(&b, &c)
	h.Sub(&h, &t)
	i.Sub(&e, &b)
	j.Square(&p.x)
	ee.Square(&e)

	t.Sub(&b, &f)
	p.x.Mul(&a, &t)
	t.Square(&g)
	a.Add(&ee, &ee)
	a.Add(&a, &ee)
	p.y.Sub(&t, &a)
	p.z.Mul(&b, &h)

	l.c0.Neg(&h)
	l.c1.Add(&j, &j)
	l.c1.Add(&l.c1, &j)
	l.c3 = i
}

// addStepProj adds the affine point q to p in place and returns the chord
// line through them in l, not yet evaluated at a G1 point. With
// O = Y - yQ·Z, L = X - xQ·Z, t1 = L², t2 = L·t1, t3 = t1·X,
// W = O²·Z + t2 - 2t3:
//
//	X₃ = L·W, Y₃ = O·(t3 - W) - t2·Y, Z₃ = t2·Z
//
// and the line (up to the factor L) is -L·yP + O·xP·w + (L·yQ - O·xQ)·w³.
func (p *g2Proj) addStepProj(l *lineEval, q *G2) {
	opCounters.lineAdds.Add(1)
	var o, lam, t1, t2, t3, t4, w, t Fp2
	t.Mul(&q.Y, &p.z)
	o.Sub(&p.y, &t)
	t.Mul(&q.X, &p.z)
	lam.Sub(&p.x, &t)

	t1.Square(&lam)
	t2.Mul(&lam, &t1)
	t3.Mul(&t1, &p.x)
	t4.Square(&o)
	t4.Mul(&t4, &p.z)
	w.Add(&t4, &t2)
	t.Add(&t3, &t3)
	w.Sub(&w, &t)

	p.x.Mul(&lam, &w)
	t.Sub(&t3, &w)
	t.Mul(&t, &o)
	t4.Mul(&t2, &p.y)
	p.y.Sub(&t, &t4)
	p.z.Mul(&p.z, &t2)

	l.c0.Neg(&lam)
	l.c1 = o
	t.Mul(&lam, &q.Y)
	t4.Mul(&o, &q.X)
	l.c3.Sub(&t, &t4)
}

// at evaluates a line from doubleStepProj or addStepProj at the G1 point
// (xP, yP): c0 scales by yP and c1 by xP.
func (l *lineEval) at(pt *G1) *lineEval {
	l.c0.MulScalar(&l.c0, &pt.Y)
	l.c1.MulScalar(&l.c1, &pt.X)
	return l
}

// easyPart sets z = f^((p^6-1)(p^2+1)), mapping f into the cyclotomic
// subgroup where elements are unitary (x^(p^6) = x⁻¹).
func (z *Fp12) easyPart(f *Fp12) *Fp12 {
	var t, s Fp12
	t.Conjugate(f) // f^(p^6)
	t.Mul(&t, s.Inverse(f))
	s.FrobeniusN(&t, 2)
	return z.Mul(&s, &t)
}

// finalExponentiation maps an unreduced Miller value to the order-r
// cyclotomic subgroup: f^((p^12-1)/r). The hard part uses the
// Devegili–Scott–Dahab addition chain for BN curves: three exponentiations
// by the curve parameter u plus Frobenius maps and cheap unitary inversions
// (conjugations). Past the easy part every value is unitary, so all
// squarings — inside the u-exponentiations and in the chain itself — use
// the Granger–Scott cyclotomic formulas. Equivalence with plain
// square-and-multiply by (p^4-p^2+1)/r is asserted by tests. It sets z to
// the result and returns z.
func finalExponentiation(z, f *Fp12) *Fp12 {
	if f.IsOne() { // a product of trivial pairs; the identity reduces to itself
		return z.Set(f)
	}
	opCounters.finalExps.Add(1)
	var r, fp, fp2, fp3, fu, fu2, fu3, fu2p, fu3p Fp12
	var y0, y1, y2, y3, y4, y5, y6, t0, t1 Fp12
	r.easyPart(f)

	fp.Frobenius(&r)
	fp2.FrobeniusN(&r, 2)
	fp3.Frobenius(&fp2)

	fu.ExpCyclotomic(&r, uWNAF)
	fu2.ExpCyclotomic(&fu, uWNAF)
	fu3.ExpCyclotomic(&fu2, uWNAF)

	y3.Frobenius(&fu)
	fu2p.Frobenius(&fu2)
	fu3p.Frobenius(&fu3)
	y2.FrobeniusN(&fu2, 2)

	y0.Mul(&fp, &fp2)
	y0.Mul(&y0, &fp3)
	// In the cyclotomic subgroup conjugation is inversion.
	y1.Conjugate(&r)
	y5.Conjugate(&fu2)
	y3.Conjugate(&y3)
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	t0.CyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.CyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.CyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.CyclotomicSquare(&t0)
	return z.Mul(&t0, &t1)
}

// Pair computes the optimal-ate pairing e(p, q), nil for q off G2 and p ≠ O.
// Pairing with the identity in either slot yields the identity of GT. It is
// a one-pair wrapper over the lockstep multi-pairing kernel (multipair.go).
func Pair(p *G1, q *G2) *GT {
	return FinalExp(MillerLoopMulti([]*G1{p}, []*G2{q}))
}

// PairingCheck reports whether Π e(p_i, q_i) = 1 (false if a q_i beside a
// p_i ≠ O is off G2): one lockstep Miller pass shares the squarings across
// all pairs, and one final exponentiation reduces the product.
func PairingCheck(ps []*G1, qs []*G2) bool {
	if len(ps) != len(qs) {
		return false
	}
	return ReducesToOne(MillerLoopMulti(ps, qs))
}
