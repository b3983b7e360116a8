package bn254

import "mccls/internal/bn254/fp"

// Jacobian-coordinate scalar multiplication for G1 and G2. A point (X, Y, Z)
// represents the affine point (X/Z², Y/Z³); doubling and addition avoid the
// per-step field inversion of the affine chord-and-tangent rule, cutting a
// 254-bit scalar multiplication from ~380 inversions (each worth hundreds
// of Montgomery multiplications) to one. All accumulator updates mutate in
// place on value-type limbs, so the ladder itself does not allocate. The
// affine ladders in oracle_test.go are the cross-checked reference
// (TestJacobianMatchesAffine).

// g1Jac is a G1 point in Jacobian coordinates. Z = 0 encodes infinity.
type g1Jac struct {
	x, y, z fp.Element
}

func (j *g1Jac) setInfinity() {
	j.x.SetOne()
	j.y.SetOne()
	j.z.SetZero()
}

func (j *g1Jac) fromAffine(p *G1) {
	if p.Inf {
		j.setInfinity()
		return
	}
	j.x.Set(&p.X)
	j.y.Set(&p.Y)
	j.z.SetOne()
}

func (j *g1Jac) isInfinity() bool { return j.z.IsZero() }

// affine writes j into out in affine coordinates and returns out.
func (j *g1Jac) affine(out *G1) *G1 {
	if j.isInfinity() {
		return out.Set(G1Infinity())
	}
	var zInv, zInv2, zInv3 fp.Element
	fpMustInverse(&zInv, &j.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	out.X.Mul(&j.x, &zInv2)
	out.Y.Mul(&j.y, &zInv3)
	out.Inf = false
	return out
}

// double sets j = 2j in place using the a=0 dbl-2009-l formulas.
func (j *g1Jac) double() {
	if j.isInfinity() {
		return
	}
	if j.y.IsZero() {
		j.setInfinity()
		return
	}
	var a, b, c, d, e, f, t fp.Element
	a.Square(&j.x)  // A = X²
	b.Square(&j.y)  // B = Y²
	c.Square(&b)    // C = B²
	d.Add(&j.x, &b) // X+B
	d.Square(&d)    // (X+B)²
	d.Sub(&d, &a)   //
	d.Sub(&d, &c)   //
	d.Double(&d)    // D = 2((X+B)²-A-C)
	e.Double(&a)    //
	e.Add(&e, &a)   // E = 3A
	f.Square(&e)    // F = E²
	j.z.Mul(&j.y, &j.z)
	j.z.Double(&j.z) // Z3 = 2YZ (uses old Y, old Z)
	t.Double(&d)
	j.x.Sub(&f, &t) // X3 = F - 2D
	t.Sub(&d, &j.x)
	t.Mul(&t, &e)
	c.Double(&c)
	c.Double(&c)
	c.Double(&c)    // 8C
	j.y.Sub(&t, &c) // Y3 = E(D-X3) - 8C
}

// addMixed sets j = j + q in place for an affine, non-infinity q.
func (j *g1Jac) addMixed(q *G1) { j.addXY(&q.X, &q.Y) }

// addXY sets j = j + (x, y) in place for an affine point given by its
// coordinates (madd-2007-bl); the fixed-base table stores bare pairs.
func (j *g1Jac) addXY(x, y *fp.Element) {
	if j.isInfinity() {
		j.x, j.y = *x, *y
		j.z.SetOne()
		return
	}
	var z1z1, u2, s2 fp.Element
	z1z1.Square(&j.z)
	u2.Mul(x, &z1z1)
	s2.Mul(y, &j.z)
	s2.Mul(&s2, &z1z1)
	if u2.Equal(&j.x) {
		if !s2.Equal(&j.y) {
			j.setInfinity()
			return
		}
		j.double()
		return
	}
	var h, hh, i, jj, r, v, t fp.Element
	h.Sub(&u2, &j.x)
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i) // 4H²
	jj.Mul(&h, &i)
	r.Sub(&s2, &j.y)
	r.Double(&r)
	v.Mul(&j.x, &i)
	// X3 = r² - J - 2V
	var x3 fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	// Y3 = r(V - X3) - 2·Y1·J (old Y1)
	var y3 fp.Element
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&j.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	// Z3 = (Z1 + H)² - Z1Z1 - HH
	var z3 fp.Element
	z3.Add(&j.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)
	j.x, j.y, j.z = x3, y3, z3
}

// g1BatchAffine normalizes a slice of Jacobian points to affine with a
// single field inversion (Montgomery's batch-inversion trick): one forward
// pass accumulates prefix products of the Z coordinates, one inversion, and
// one backward pass peels off per-point inverses. Points at infinity are
// passed through untouched. The results land in out (len(out) == len(js)),
// whose X slots double as the prefix-product scratch, so nothing allocates.
func g1BatchAffine(out []G1, js []g1Jac) {
	var acc fp.Element
	acc.SetOne()
	for i := range js {
		if out[i].Inf = js[i].isInfinity(); out[i].Inf {
			continue
		}
		out[i].X = acc
		acc.Mul(&acc, &js[i].z)
	}
	var inv fp.Element
	fpMustInverse(&inv, &acc)
	for i := len(js) - 1; i >= 0; i-- {
		if out[i].Inf {
			continue
		}
		var zInv, zInv2, zInv3 fp.Element
		zInv.Mul(&inv, &out[i].X)
		inv.Mul(&inv, &js[i].z)
		zInv2.Square(&zInv)
		zInv3.Mul(&zInv2, &zInv)
		out[i].X.Mul(&js[i].x, &zInv2)
		out[i].Y.Mul(&js[i].y, &zInv3)
	}
}

// g2BatchAffine is the Fp2 counterpart of g1BatchAffine.
func g2BatchAffine(out []G2, js []g2Jac) {
	acc := *Fp2One()
	for i := range js {
		if out[i].Inf = js[i].isInfinity(); out[i].Inf {
			continue
		}
		out[i].X = acc
		acc.Mul(&acc, &js[i].z)
	}
	var inv Fp2
	inv.Inverse(&acc)
	for i := len(js) - 1; i >= 0; i-- {
		if out[i].Inf {
			continue
		}
		var zInv, zInv2, zInv3 Fp2
		zInv.Mul(&inv, &out[i].X)
		inv.Mul(&inv, &js[i].z)
		zInv2.Square(&zInv)
		zInv3.Mul(&zInv2, &zInv)
		out[i].X.Mul(&js[i].x, &zInv2)
		out[i].Y.Mul(&js[i].y, &zInv3)
	}
}

// g2Jac is a G2 point in Jacobian coordinates over Fp2. Z = 0 encodes
// infinity.
type g2Jac struct {
	x, y, z Fp2
}

func (j *g2Jac) setInfinity() {
	j.x = *Fp2One()
	j.y = *Fp2One()
	j.z = Fp2{}
}

func (j *g2Jac) fromAffine(p *G2) {
	if p.Inf {
		j.setInfinity()
		return
	}
	j.x = p.X
	j.y = p.Y
	j.z = *Fp2One()
}

func (j *g2Jac) isInfinity() bool { return j.z.IsZero() }

// affine writes j into out in affine coordinates and returns out.
func (j *g2Jac) affine(out *G2) *G2 {
	if j.isInfinity() {
		return out.Set(G2Infinity())
	}
	var zInv, zInv2, zInv3 Fp2
	zInv.Inverse(&j.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	out.X.Mul(&j.x, &zInv2)
	out.Y.Mul(&j.y, &zInv3)
	out.Inf = false
	return out
}

func (j *g2Jac) double() {
	if j.isInfinity() {
		return
	}
	if j.y.IsZero() {
		j.setInfinity()
		return
	}
	var a, b, c, d, e, f, t Fp2
	a.Square(&j.x)
	b.Square(&j.y)
	c.Square(&b)
	d.Add(&j.x, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Add(&d, &d)
	e.Add(&a, &a)
	e.Add(&e, &a)
	f.Square(&e)
	j.z.Mul(&j.y, &j.z)
	j.z.Add(&j.z, &j.z)
	t.Add(&d, &d)
	j.x.Sub(&f, &t)
	t.Sub(&d, &j.x)
	t.Mul(&t, &e)
	c.Add(&c, &c)
	c.Add(&c, &c)
	c.Add(&c, &c)
	j.y.Sub(&t, &c)
}

func (j *g2Jac) addMixed(q *G2) {
	if j.isInfinity() {
		j.fromAffine(q)
		return
	}
	var z1z1, u2, s2 Fp2
	z1z1.Square(&j.z)
	u2.Mul(&q.X, &z1z1)
	s2.Mul(&q.Y, &j.z)
	s2.Mul(&s2, &z1z1)
	if u2.Equal(&j.x) {
		if !s2.Equal(&j.y) {
			j.setInfinity()
			return
		}
		j.double()
		return
	}
	var h, hh, i, jj, r, v, t, x3, y3, z3 Fp2
	h.Sub(&u2, &j.x)
	hh.Square(&h)
	i.Add(&hh, &hh)
	i.Add(&i, &i)
	jj.Mul(&h, &i)
	r.Sub(&s2, &j.y)
	r.Add(&r, &r)
	v.Mul(&j.x, &i)
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	t.Add(&v, &v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&j.y, &jj)
	t.Add(&t, &t)
	y3.Sub(&y3, &t)
	z3.Add(&j.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)
	j.x, j.y, j.z = x3, y3, z3
}

// add sets j = j + q in place for a Jacobian q (add-2007-bl); either operand
// may be infinity and the two may be equal or opposite.
func (j *g2Jac) add(q *g2Jac) {
	if q.isInfinity() {
		return
	}
	if j.isInfinity() {
		*j = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 Fp2
	z1z1.Square(&j.z)
	z2z2.Square(&q.z)
	u1.Mul(&j.x, &z2z2)
	u2.Mul(&q.x, &z1z1)
	s1.Mul(&j.y, &q.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.y, &j.z)
	s2.Mul(&s2, &z1z1)
	if u1.Equal(&u2) {
		if !s1.Equal(&s2) {
			j.setInfinity()
			return
		}
		j.double()
		return
	}
	var h, i, jj, r, v, t Fp2
	h.Sub(&u2, &u1)
	i.Add(&h, &h)
	i.Square(&i)
	jj.Mul(&h, &i)
	r.Sub(&s2, &s1)
	r.Add(&r, &r)
	v.Mul(&u1, &i)
	j.z.Add(&j.z, &q.z)
	j.z.Square(&j.z)
	j.z.Sub(&j.z, &z1z1)
	j.z.Sub(&j.z, &z2z2)
	j.z.Mul(&j.z, &h)
	j.x.Square(&r)
	j.x.Sub(&j.x, &jj)
	t.Add(&v, &v)
	j.x.Sub(&j.x, &t)
	t.Sub(&v, &j.x)
	t.Mul(&t, &r)
	s1.Mul(&s1, &jj)
	s1.Add(&s1, &s1)
	j.y.Sub(&t, &s1)
}

// frobeniusTwist applies ψ (see G2.frobeniusTwist) in place: conjugation is
// a field automorphism, so it passes through the X/Z², Y/Z³ scaling.
func (j *g2Jac) frobeniusTwist() {
	j.x.Conjugate(&j.x)
	j.x.Mul(&j.x, xiToPMinus1Over3)
	j.y.Conjugate(&j.y)
	j.y.Mul(&j.y, xiToPMinus1Over2)
	j.z.Conjugate(&j.z)
}
