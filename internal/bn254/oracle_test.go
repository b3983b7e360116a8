package bn254

import (
	"math/big"

	"mccls/internal/bn254/fp"
)

// Reference implementations the differential tests and fuzzers compare the
// production kernels against. None has a production caller, so they live
// here and are compiled into test binaries only: the per-pair and affine
// Miller loops (vs MillerLoopMulti), the square-and-multiply final
// exponentiation (vs the Devegili–Scott–Dahab chain), the schoolbook Fp12
// product and square, the Galois-norm Fp12 inverse and the generic Fp12
// ladder (vs the Fp6-view kernels and the cyclotomic wNAF ladder), the
// affine ladders, with the chord-and-tangent formulas they share with no
// shipped code, and the plain-Jacobian ladders (vs the walkWNAF engine), and
// the full-width forms the Frobenius shortcuts replaced: the [r]Q subgroup
// check, the [2p - r]Q cofactor clearing and the power-rebuilding Fp12
// Frobenius with its six-fold conjugate.

// finalExpHard is (p^4 - p^2 + 1)/r, the hard part of the final
// exponentiation (the easy part (p^6-1)(p^2+1) is applied via Frobenius
// maps and one inversion).
var finalExpHard = computeFinalExpHard()

// fp12 expands the sparse line into a full Fp12 element (reference path).
func (l *lineEval) fp12() *Fp12 {
	z := &Fp12{}
	z.C[0] = l.c0
	z.C[1] = l.c1
	z.C[3] = l.c3
	return z
}

// doubleStep doubles t in place and returns the tangent line at t evaluated
// at p (affine reference path, one Fp2 inversion per step).
func doubleStep(t *G2, p *G1) *lineEval {
	// lambda' = 3x²/(2y) on the twist.
	var lambda, s, den Fp2
	s.Square(&t.X)
	lambda.Add(&s, &s)
	lambda.Add(&lambda, &s)
	den.Add(&t.Y, &t.Y)
	lambda.Mul(&lambda, den.Inverse(&den))
	l := lineAt(t, &lambda, p)

	var x3, y3 Fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &t.X)
	x3.Sub(&x3, &t.X)
	y3.Sub(&t.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.Y)
	t.X, t.Y = x3, y3
	return l
}

// addStep adds q to t in place and returns the chord line through (t, q)
// evaluated at p. t and q must be distinct non-identity points with
// different x (guaranteed along the ate loop for prime-order inputs).
func addStep(t *G2, q *G2, p *G1) *lineEval {
	var lambda, den Fp2
	lambda.Sub(&q.Y, &t.Y)
	den.Sub(&q.X, &t.X)
	lambda.Mul(&lambda, den.Inverse(&den))
	l := lineAt(t, &lambda, p)

	var x3, y3 Fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &t.X)
	x3.Sub(&x3, &q.X)
	y3.Sub(&t.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.Y)
	t.X, t.Y = x3, y3
	return l
}

// lineAt evaluates the line through the twist point t with twist-slope
// lambda at the G1 point p. Under the untwist map (x, y) → (x·w², y·w³) the
// line value is (-y_p) + (lambda·x_p)·w + (y_t - lambda·x_t)·w³.
func lineAt(t *G2, lambda *Fp2, p *G1) *lineEval {
	l := &lineEval{}
	l.c1.MulScalar(lambda, &p.X)
	l.c3.Mul(lambda, &t.X)
	l.c3.Sub(&t.Y, &l.c3)
	l.c0.C0.Neg(&p.Y)
	l.c0.C1.SetZero()
	return l
}

// millerLoop computes f_{6u+2,Q}(P) · l_{T,π(Q)}(P) · l_{T+π(Q),-π²(Q)}(P),
// the unreduced optimal-ate pairing value of ONE pair, walking the same
// signed digits (ateNAF) as MillerLoopMulti with the same projective steps
// and sparse line accumulation — so the lockstep kernel must reproduce the
// product of these byte for byte — but squaring the accumulator by the
// schoolbook convolution. The result differs from the binary, affine
// millerLoopNaive by a factor in a proper subfield (dropped denominators,
// and the verticals a -Q step skips), which the easy part of the final
// exponentiation removes; tests compare those two after reduction.
func millerLoop(p *G1, q *G2) *Fp12 {
	opCounters.pairings.Add(1)
	var t g2Proj
	t.fromAffine(q)
	negQ := new(G2).Neg(q)
	f := Fp12One()
	var l lineEval
	for i := len(ateNAF) - 2; i >= 0; i-- {
		opCounters.millerSquarings.Add(1)
		f = fp12SquareSchoolbook(f)
		t.doubleStepProj(&l)
		f.mulByLine(l.at(p))
		if d := ateNAF[i]; d != 0 {
			qd := q
			if d < 0 {
				qd = negQ
			}
			t.addStepProj(&l, qd)
			f.mulByLine(l.at(p))
		}
	}
	q1 := new(G2).frobeniusTwist(q)
	t.addStepProj(&l, q1)
	f.mulByLine(l.at(p))
	q2 := new(G2).frobeniusTwist(q1)
	q2.Neg(q2)
	t.addStepProj(&l, q2)
	f.mulByLine(l.at(p))
	return f
}

// ateLineCounts derives the per-pair line profile of one Miller loop from
// the digits it walks: one doubling step (and one accumulator squaring) per
// digit below the top one; one addition step per nonzero digit below the
// top, plus the two Frobenius correction lines.
func ateLineCounts() (doubles, adds uint64) {
	adds = 2
	for _, d := range ateNAF[:len(ateNAF)-1] {
		if d != 0 {
			adds++
		}
	}
	return uint64(len(ateNAF) - 1), adds
}

// millerLoopNaive is the affine reference Miller loop: the binary walk of
// 6u+2 with dense schoolbook Fp12 arithmetic, sharing neither the signed
// digits, the projective steps, the sparse line product nor the Fp6-view
// kernels with the shipped path.
func millerLoopNaive(p *G1, q *G2) *Fp12 {
	f := Fp12One()
	t := new(G2).Set(q)
	for i := ateLoopCount.BitLen() - 2; i >= 0; i-- {
		f = fp12MulSchoolbook(f, f)
		f = fp12MulSchoolbook(f, doubleStep(t, p).fp12())
		if ateLoopCount.Bit(i) == 1 {
			f = fp12MulSchoolbook(f, addStep(t, q, p).fp12())
		}
	}
	q1 := new(G2).frobeniusTwist(q)
	f = fp12MulSchoolbook(f, addStep(t, q1, p).fp12())
	q2 := new(G2).frobeniusTwist(q1)
	q2.Neg(q2)
	return fp12MulSchoolbook(f, addStep(t, q2, p).fp12())
}

// fp12MulSchoolbook is x·y by the 36-product convolution with reduction
// w^6 = xi the Fp6-view Karatsuba replaced: each of the 11 convolution
// slots accumulates in an unreduced fp2Wide (at most six products, a 13q²
// peak of the ≈ 21q² Wide contract), and the xi fold for slots 6..10
// happens after reduction.
func fp12MulSchoolbook(x, y *Fp12) *Fp12 {
	var acc [11]fp2Wide
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			acc[a+b].mulAcc(&x.C[a], &y.C[b])
		}
	}
	return foldSchoolbook(&acc)
}

// fp12SquareSchoolbook is x² by the symmetric convolution (6 squarings and
// 15 doubled cross products) the complex method replaced.
func fp12SquareSchoolbook(x *Fp12) *Fp12 {
	var acc [11]fp2Wide
	var d Fp2
	for a := 0; a < 6; a++ {
		acc[2*a].mulAcc(&x.C[a], &x.C[a])
		for b := a + 1; b < 6; b++ {
			d.Double(&x.C[b])
			acc[a+b].mulAcc(&x.C[a], &d)
		}
	}
	return foldSchoolbook(&acc)
}

// foldSchoolbook reduces the 11 convolution slots and folds w^k = w^(k-6)·xi.
func foldSchoolbook(acc *[11]fp2Wide) *Fp12 {
	var res Fp12
	var t Fp2
	for k := 0; k < 6; k++ {
		acc[k].reduce(&res.C[k])
	}
	for k := 6; k < 11; k++ {
		acc[k].reduce(&t)
		t.MulByXi(&t)
		res.C[k-6].Add(&res.C[k-6], &t)
	}
	return &res
}

// fp12InverseNorm is x⁻¹ by the Galois norm to Fp2 the tower inverse
// replaced: with σ = Frobenius² generating Gal(Fp12/Fp2),
// t = Π_{k=1..5} σ^k(x) and N = x·t ∈ Fp2, so x⁻¹ = t/N.
func fp12InverseNorm(x *Fp12) *Fp12 {
	t := Fp12One()
	conj := new(Fp12).Set(x)
	for k := 1; k <= 5; k++ {
		conj.FrobeniusN(conj, 2)
		t = fp12MulSchoolbook(t, conj)
	}
	norm := fp12MulSchoolbook(x, t)
	for k := 1; k < 6; k++ {
		if !norm.C[k].IsZero() {
			panic("bn254: Fp12 norm not in Fp2")
		}
	}
	nInv := new(Fp2).Inverse(&norm.C[0])
	for k := range t.C {
		t.C[k].Mul(&t.C[k], nInv)
	}
	return t
}

// Exp sets z = x^e for a non-negative integer exponent e by plain
// square-and-multiply: the oracle for the cyclotomic ladders.
func (z *Fp12) Exp(x *Fp12, e *big.Int) *Fp12 {
	acc := Fp12One()
	base := new(Fp12).Set(x)
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(acc)
		if e.Bit(i) == 1 {
			acc.Mul(acc, base)
		}
	}
	return z.Set(acc)
}

// finalExponentiationNaive raises the easy-part result to the hard exponent
// (p^4-p^2+1)/r by plain square-and-multiply. It is the reference
// implementation the optimized path is tested against.
func finalExponentiationNaive(f *Fp12) *Fp12 {
	return new(Fp12).Exp(new(Fp12).easyPart(f), finalExpHard)
}

// computeFinalExpHard returns (p^4 - p^2 + 1) / r. The division is exact for
// BN curves; exactness is asserted by tests.
func computeFinalExpHard() *big.Int {
	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	e := new(big.Int).Sub(p4, p2)
	e.Add(e, big.NewInt(1))
	return e.Div(e, Order)
}

// g1ScalarMultAffine is the affine double-and-add reference ladder,
// retained for differential tests against the Jacobian fast path.
func g1ScalarMultAffine(a *G1, k *big.Int) *G1 {
	acc := G1Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = g1DoubleAffine(acc)
		if k.Bit(i) == 1 {
			acc = g1AddAffine(acc, a)
		}
	}
	return acc
}

// g2ScalarMultAffine is the affine double-and-add reference ladder,
// retained for differential tests against the Jacobian fast path.
func g2ScalarMultAffine(a *G2, k *big.Int) *G2 {
	acc := G2Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = g2DoubleAffine(acc)
		if k.Bit(i) == 1 {
			acc = g2AddAffine(acc, a)
		}
	}
	return acc
}

// g1AddAffine is a + b by the affine chord-and-tangent rule, sharing no
// formula with the Jacobian code G1.Add is built on.
func g1AddAffine(a, b *G1) *G1 {
	if a.Inf {
		return new(G1).Set(b)
	}
	if b.Inf {
		return new(G1).Set(a)
	}
	if a.X.Equal(&b.X) {
		if !a.Y.Equal(&b.Y) {
			return G1Infinity()
		}
		return g1DoubleAffine(a)
	}
	// lambda = (y2-y1)/(x2-x1); x2 ≠ x1 here, so the inverse exists.
	var lambda, den fp.Element
	lambda.Sub(&b.Y, &a.Y)
	den.Sub(&b.X, &a.X)
	fpMustInverse(&den, &den)
	lambda.Mul(&lambda, &den)
	return g1Chord(a, b, &lambda)
}

// g1DoubleAffine is 2a by the tangent at a.
func g1DoubleAffine(a *G1) *G1 {
	if a.Inf || a.Y.IsZero() {
		return G1Infinity()
	}
	// lambda = 3x²/(2y); y ≠ 0 here, so the inverse exists.
	var lambda, t, den fp.Element
	t.Square(&a.X)
	lambda.Double(&t)
	lambda.Add(&lambda, &t)
	den.Double(&a.Y)
	fpMustInverse(&den, &den)
	lambda.Mul(&lambda, &den)
	return g1Chord(a, a, &lambda)
}

// g1Chord is the third point, negated, of the line of slope lambda through
// a and b: x3 = lambda² - xa - xb, y3 = lambda(xa - x3) - ya.
func g1Chord(a, b *G1, lambda *fp.Element) *G1 {
	z := new(G1)
	z.X.Square(lambda)
	z.X.Sub(&z.X, &a.X)
	z.X.Sub(&z.X, &b.X)
	z.Y.Sub(&a.X, &z.X)
	z.Y.Mul(&z.Y, lambda)
	z.Y.Sub(&z.Y, &a.Y)
	return z
}

// g2AddAffine is g1AddAffine on the twist.
func g2AddAffine(a, b *G2) *G2 {
	if a.Inf {
		return new(G2).Set(b)
	}
	if b.Inf {
		return new(G2).Set(a)
	}
	if a.X.Equal(&b.X) {
		if !a.Y.Equal(&b.Y) {
			return G2Infinity()
		}
		return g2DoubleAffine(a)
	}
	var lambda, den Fp2
	lambda.Sub(&b.Y, &a.Y)
	den.Sub(&b.X, &a.X)
	lambda.Mul(&lambda, den.Inverse(&den))
	return g2Chord(a, b, &lambda)
}

// g2DoubleAffine is g1DoubleAffine on the twist.
func g2DoubleAffine(a *G2) *G2 {
	if a.Inf || a.Y.IsZero() {
		return G2Infinity()
	}
	var lambda, t, den Fp2
	t.Square(&a.X)
	lambda.Add(&t, &t)
	lambda.Add(&lambda, &t)
	den.Add(&a.Y, &a.Y)
	lambda.Mul(&lambda, den.Inverse(&den))
	return g2Chord(a, a, &lambda)
}

// g2Chord is g1Chord on the twist.
func g2Chord(a, b *G2, lambda *Fp2) *G2 {
	z := new(G2)
	z.X.Square(lambda)
	z.X.Sub(&z.X, &a.X)
	z.X.Sub(&z.X, &b.X)
	z.Y.Sub(&a.X, &z.X)
	z.Y.Mul(&z.Y, lambda)
	z.Y.Sub(&z.Y, &a.Y)
	return z
}

// g1ScalarMultJac computes k·a (k already reduced and non-negative) by the
// plain double-and-add ladder.
func g1ScalarMultJac(a *G1, k *big.Int) *G1 {
	if a.Inf || k.Sign() == 0 {
		return G1Infinity()
	}
	var acc g1Jac
	acc.setInfinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if k.Bit(i) == 1 {
			acc.addMixed(a)
		}
	}
	return acc.affine(new(G1))
}

// g2ScalarMultJac computes k·a for any non-negative k (not reduced; used
// for cofactor clearing and subgroup checks too).
func g2ScalarMultJac(a *G2, k *big.Int) *G2 {
	if a.Inf || k.Sign() == 0 {
		return G2Infinity()
	}
	var acc g2Jac
	acc.setInfinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if k.Bit(i) == 1 {
			acc.addMixed(a)
		}
	}
	return acc.affine(new(G2))
}

// wnafDigitsBig is the width-w NAF recoding over math/big the ladders
// shipped with before the limb recoding: its oracle, and the recoding of
// the test scalars wider than 256 bits.
func wnafDigitsBig(k *big.Int, w uint) []int8 {
	d := new(big.Int).Set(k)
	out := make([]int8, 0, k.BitLen()+1)
	mod := int64(1) << w
	half := mod >> 1
	r := new(big.Int)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			v := r.And(d, big.NewInt(mod-1)).Int64() // d mod 2^w
			if v >= half {
				v -= mod
			}
			out = append(out, int8(v))
			d.Sub(d, big.NewInt(v))
		} else {
			out = append(out, 0)
		}
		d.Rsh(d, 1)
	}
	return out
}

// g2ScalarMultWNAF is the shipped engine's walk on one row, which needs no
// ψ, normalized to affine: k·a for any twist point and any non-negative k.
func g2ScalarMultWNAF(a *G2, k *big.Int) *G2 {
	acc := g2Joint([]*G2{a}, [][]int8{wnafDigitsBig(k, wnafWindow)})
	return acc.affine(new(G2))
}

// g2Cofactor is #E'(Fp2)/r = 2p - r for BN curves: the scalar the
// full-width cofactor clearing multiplies by.
var g2Cofactor = new(big.Int).Sub(new(big.Int).Lsh(P, 1), Order)

// g2InSubgroupByOrder is the definitional subgroup check: on the twist and
// killed by r, one 254-doubling ladder.
func g2InSubgroupByOrder(q *G2) bool {
	return q.IsOnCurve() && g2ScalarMultWNAF(q, Order).IsInfinity()
}

// Exp sets z = x^e for a non-negative big.Int exponent by left-to-right
// square-and-multiply: the oracle for expFixed and the Frobenius constants
// (no shipped code exponentiates by a big.Int).
func (z *Fp2) Exp(x *Fp2, e *big.Int) *Fp2 {
	acc := Fp2One()
	base := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(acc)
		if e.Bit(i) == 1 {
			acc.Mul(acc, &base)
		}
	}
	return z.Set(acc)
}

// fp2SqrtAdjRodriguez is Fp2.Sqrt as it shipped before the norm method:
// the complex-extension algorithm for p ≡ 3 (mod 4) of Adj & Rodríguez-
// Henríquez, both exponents rebuilt as big.Ints per call, so it shares no
// chain with the shipped root. Its root is χ(2·Re y)·y for either root y,
// and χ(2) = 1 for p ≡ 7 (mod 8): the root whose real part is a square.
func fp2SqrtAdjRodriguez(x *Fp2) *Fp2 {
	if x.IsZero() {
		return Fp2Zero()
	}
	e := new(big.Int).Sub(P, big.NewInt(3))
	a1 := new(Fp2).Exp(x, e.Rsh(e, 2))
	x0 := new(Fp2).Mul(a1, x)
	alpha := new(Fp2).Mul(a1, x0)
	var cand *Fp2
	if alpha.Equal(new(Fp2).Neg(Fp2One())) {
		cand = new(Fp2).Mul(&Fp2{C1: fp.One()}, x0)
	} else {
		b := new(Fp2).Add(Fp2One(), alpha)
		half := new(big.Int).Sub(P, big.NewInt(1))
		b.Exp(b, half.Rsh(half, 1))
		cand = new(Fp2).Mul(b, x0)
	}
	if !new(Fp2).Square(cand).Equal(x) {
		return nil
	}
	return cand
}

// hashToTwist derives the counter-th try-and-increment candidate of HashToG2
// for (domain, msg) — a point of E'(Fp2) in no particular subgroup, or nil
// when the hashed x has no y — in the code HashToG2 shipped with before the
// ψ clearing, so the oracle below shares nothing with the new path.
func hashToTwist(domain string, msg []byte, counter uint32) *G2 {
	b0 := hashBlock(domain, "/x0", msg, counter)
	b1 := hashBlock(domain, "/x1", msg, counter)
	x := fp2FromBig(new(big.Int).SetBytes(b0[:]), new(big.Int).SetBytes(b1[:]))
	var rhs, y Fp2
	rhs.Square(x)
	rhs.Mul(&rhs, x)
	rhs.Add(&rhs, twistB)
	root := fp2SqrtAdjRodriguez(&rhs)
	if root == nil {
		return nil
	}
	y = *root
	if b0[len(b0)-1]&1 == 1 {
		y.Neg(&y)
	}
	return &G2{X: *x, Y: y}
}

// sixUSquared is 6u² = t - 1, t the trace of Frobenius; sixUSquaredWNAF its
// width-wnafWindow recoding for clearCofactorTrace.
var (
	sixUSquared     = new(big.Int).Mul(big.NewInt(6), new(big.Int).Mul(u, u))
	sixUSquaredWNAF = wnafDigits(nil, scalarLimbs(sixUSquared), wnafWindow)
)

// clearCofactorTrace is the exact cofactor clearing HashToG2 shipped with
// before the short map: ψ² - tψ + p = 0 on all of E'(Fp2) and
// 2p - r = p + t - 1, so [2p - r]q = R + ψ(R) + ψ(q) - ψ²(q) with
// R = [t - 1]q = [6u²]q, a 127-bit ladder — a second oracle for c′·Y that
// shares no walk with clearCofactor.
func clearCofactorTrace(q *G2) *G2 {
	acc := g2Joint([]*G2{q}, [][]int8{sixUSquaredWNAF}) // one row: no ψ off the subgroup
	t := acc
	t.frobeniusTwist()
	acc.add(&t)
	var pq G2
	acc.addMixed(pq.frobeniusTwist(q))
	pq.frobeniusTwist(&pq)
	acc.addMixed(pq.Neg(&pq))
	return acc.affine(new(G2))
}

// hashToG2FullCofactor is HashToG2 with the cofactor cleared by the
// full-width multiplication [2p - r]Q.
func hashToG2FullCofactor(domain string, msg []byte) *G2 {
	for counter := uint32(0); ; counter++ {
		cand := hashToTwist(domain, msg, counter)
		if cand == nil {
			continue
		}
		if pt := g2ScalarMultWNAF(cand, g2Cofactor); !pt.IsInfinity() {
			return pt
		}
	}
}

// fp12FrobeniusByPowers is x^p computed coefficient by coefficient with the
// powers of gamma = xi^((p-1)/6) rebuilt on the fly, independent of the
// frobGamma table.
func fp12FrobeniusByPowers(x *Fp12) *Fp12 {
	var res Fp12
	e := new(big.Int).Sub(P, big.NewInt(1))
	gamma := new(Fp2).Exp(xi(), e.Div(e, big.NewInt(6)))
	pow := *Fp2One()
	for k := 0; k < 6; k++ {
		res.C[k].Conjugate(&x.C[k])
		res.C[k].Mul(&res.C[k], &pow)
		pow.Mul(&pow, gamma)
	}
	return &res
}

// fp12FrobeniusIterated is x^(p^n) by n applications of
// fp12FrobeniusByPowers; n = 6 is the conjugate the shipped code negates
// coefficients for.
func fp12FrobeniusIterated(x *Fp12, n int) *Fp12 {
	z := new(Fp12).Set(x)
	for i := 0; i < n; i++ {
		z = fp12FrobeniusByPowers(z)
	}
	return z
}
