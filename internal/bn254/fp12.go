package bn254

import (
	"math/big"
	"strings"
)

// Fp12 is the sextic extension Fp2[w]/(w^6 - xi) with xi = 9 + i. An element
// is sum_{k=0..5} C[k]·w^k. This single-step tower (instead of the usual
// 2-3-2 tower) keeps multiplication, Frobenius and inversion uniform: the
// Frobenius acts coefficient-wise as conjugation times xi^(k(p-1)/6), and
// inversion reduces to the Galois norm down to Fp2.
//
// Coefficients are value-type Fp2 elements, so the zero value of Fp12 is
// the field's zero and arithmetic stays on the stack.
//
// Methods follow the math/big convention: z.Op(x, y) stores the result in z
// and returns z. Receivers may alias arguments.
type Fp12 struct {
	C [6]Fp2
}

// Fp12One returns the multiplicative identity.
func Fp12One() *Fp12 {
	z := &Fp12{}
	z.C[0] = *Fp2One()
	return z
}

// Set copies x into z and returns z.
func (z *Fp12) Set(x *Fp12) *Fp12 {
	*z = *x
	return z
}

// IsOne reports whether z is the multiplicative identity.
func (z *Fp12) IsOne() bool {
	if !z.C[0].IsOne() {
		return false
	}
	for k := 1; k < 6; k++ {
		if !z.C[k].IsZero() {
			return false
		}
	}
	return true
}

// Equal reports whether z and x represent the same field element.
func (z *Fp12) Equal(x *Fp12) bool {
	for k := 0; k < 6; k++ {
		if !z.C[k].Equal(&x.C[k]) {
			return false
		}
	}
	return true
}

// Mul sets z = x·y by schoolbook convolution with reduction w^6 = xi,
// accumulating each of the 11 convolution slots in an unreduced fp2Wide:
// a dense product pays 22 Montgomery reductions (two per live slot)
// instead of one per coefficient product. Zero coefficients are skipped,
// so multiplying by sparse operands costs proportionally less, and
// untouched slots skip their reductions entirely.
//
// Budget: a slot receives at most six products, each contributing
// ≤ 2q² per coefficient (see fp2Wide.mulAcc), so the accumulators stay
// ≤ 12q² + one transient pad — inside the ~15q² Wide contract. The xi
// fold for slots 6..10 happens after reduction (xi on a wide value
// would multiply the budget by 10).
func (z *Fp12) Mul(x, y *Fp12) *Fp12 {
	var acc [11]fp2Wide
	var touched [11]bool
	for a := 0; a < 6; a++ {
		if x.C[a].IsZero() {
			continue
		}
		for b := 0; b < 6; b++ {
			if y.C[b].IsZero() {
				continue
			}
			acc[a+b].mulAcc(&x.C[a], &y.C[b])
			touched[a+b] = true
		}
	}
	var res Fp12
	var t Fp2
	for k := 0; k < 6; k++ {
		if touched[k] {
			acc[k].reduce(&res.C[k])
		}
	}
	for k := 6; k < 11; k++ {
		if !touched[k] {
			continue
		}
		// w^k = w^(k-6)·xi
		acc[k].reduce(&t)
		t.MulByXi(&t)
		res.C[k-6].Add(&res.C[k-6], &t)
	}
	return z.Set(&res)
}

// Square sets z = x² by symmetric convolution: cross terms a≠b appear
// twice, so the 36 coefficient products of the generic Mul collapse to
// 6 squarings plus 15 multiplications. Like Mul, slots accumulate
// unreduced; the doubling of a cross term is applied to one (reduced)
// operand before the wide product so the slot budget stays at
// ≤ 3 contributions × 2q² per coefficient.
func (z *Fp12) Square(x *Fp12) *Fp12 {
	var acc [11]fp2Wide
	var touched [11]bool
	var d Fp2
	for a := 0; a < 6; a++ {
		if x.C[a].IsZero() {
			continue
		}
		acc[2*a].mulAcc(&x.C[a], &x.C[a])
		touched[2*a] = true
		for b := a + 1; b < 6; b++ {
			if x.C[b].IsZero() {
				continue
			}
			d.Double(&x.C[b])
			acc[a+b].mulAcc(&x.C[a], &d)
			touched[a+b] = true
		}
	}
	var res Fp12
	var t Fp2
	for k := 0; k < 6; k++ {
		if touched[k] {
			acc[k].reduce(&res.C[k])
		}
	}
	for k := 6; k < 11; k++ {
		if !touched[k] {
			continue
		}
		acc[k].reduce(&t)
		t.MulByXi(&t)
		res.C[k-6].Add(&res.C[k-6], &t)
	}
	return z.Set(&res)
}

// fp4Square computes (re + im·v)² in Fp4 = Fp2[v]/(v² - xi):
// re' = re² + xi·im², im' = 2·re·im, via two multiplications
// (re² + xi·im² = (re + im)(re + xi·im) - re·im - xi·re·im).
func fp4Square(re, im *Fp2) (Fp2, Fp2) {
	var m, s, t, outRe, outIm Fp2
	m.Mul(re, im)
	t.MulByXi(im)
	t.Add(&t, re)
	s.Add(re, im)
	s.Mul(&s, &t)
	s.Sub(&s, &m)
	t.MulByXi(&m)
	outRe.Sub(&s, &t)
	outIm.Double(&m)
	return outRe, outIm
}

// CyclotomicSquare sets z = x² for x in the cyclotomic subgroup (the image
// of the easy part of the final exponentiation, where x^(p^6+1) = 1), using
// the Granger–Scott formulas (eprint 2009/565 §3.1). Viewing
// Fp12 = Fp4[w]/(w³ - v) with Fp4 = Fp2[v]/(v² - xi) and v = w³, the element
// is (C0 + C3·v) + (C1 + C4·v)·w + (C2 + C5·v)·w², and squaring costs three
// Fp4 squarings instead of a full 36-product convolution. Correctness
// against the generic Square on unitary inputs is asserted by tests; the
// result is undefined for non-unitary x.
func (z *Fp12) CyclotomicSquare(x *Fp12) *Fp12 {
	opCounters.cycSquares.Add(1)
	aRe, aIm := fp4Square(&x.C[0], &x.C[3]) // (C0 + C3 v)²
	bRe, bIm := fp4Square(&x.C[1], &x.C[4]) // (C1 + C4 v)²
	cRe, cIm := fp4Square(&x.C[2], &x.C[5]) // (C2 + C5 v)²

	var res Fp12
	var t Fp2
	// h0 = 3·A² - 2·conj(A): conj negates the v component.
	res.C[0].Sub(&aRe, &x.C[0])
	res.C[0].Double(&res.C[0])
	res.C[0].Add(&res.C[0], &aRe)
	res.C[3].Add(&aIm, &x.C[3])
	res.C[3].Double(&res.C[3])
	res.C[3].Add(&res.C[3], &aIm)
	// h1 = 3·v·C² + 2·conj(B): v·(re + im·v) = xi·im + re·v.
	t.MulByXi(&cIm)
	res.C[1].Add(&t, &x.C[1])
	res.C[1].Double(&res.C[1])
	res.C[1].Add(&res.C[1], &t)
	res.C[4].Sub(&cRe, &x.C[4])
	res.C[4].Double(&res.C[4])
	res.C[4].Add(&res.C[4], &cRe)
	// h2 = 3·B² - 2·conj(C).
	res.C[2].Sub(&bRe, &x.C[2])
	res.C[2].Double(&res.C[2])
	res.C[2].Add(&res.C[2], &bRe)
	res.C[5].Add(&bIm, &x.C[5])
	res.C[5].Double(&res.C[5])
	res.C[5].Add(&res.C[5], &bIm)
	return z.Set(&res)
}

// ExpCyclotomic sets z = x^e for a non-negative exponent and a unitary x,
// combining cyclotomic squarings with a NAF recoding of e: negative digits
// multiply by the conjugate (the free unitary inverse), cutting the
// multiplication count by a third versus plain square-and-multiply.
func (z *Fp12) ExpCyclotomic(x *Fp12, e *big.Int) *Fp12 {
	digits := nafDigits(e)
	xInv := new(Fp12).Conjugate(x)
	base := new(Fp12).Set(x)
	acc := Fp12One()
	for i := len(digits) - 1; i >= 0; i-- {
		acc.CyclotomicSquare(acc)
		switch digits[i] {
		case 1:
			acc.Mul(acc, base)
		case -1:
			acc.Mul(acc, xInv)
		}
	}
	return z.Set(acc)
}

// MulFp2 sets z = k·x for a scalar k ∈ Fp2.
func (z *Fp12) MulFp2(x *Fp12, k *Fp2) *Fp12 {
	var res Fp12
	for i := 0; i < 6; i++ {
		res.C[i].Mul(&x.C[i], k)
	}
	return z.Set(&res)
}

// Frobenius sets z = x^p.
func (z *Fp12) Frobenius(x *Fp12) *Fp12 { return z.FrobeniusN(x, 1) }

// FrobeniusN sets z = x^(p^n) for n ≥ 0, in steps of p^s with s ≤ 3. On the
// w-power basis a step is coefficient-wise, C_k ↦ conj^s(C_k)·frobGamma[s-1][k-1];
// for s = 2 the conjugations cancel and the constants lie in Fp, so a
// coefficient costs two base-field multiplications instead of three.
func (z *Fp12) FrobeniusN(x *Fp12, n int) *Fp12 {
	z.Set(x)
	for ; n > 0; n -= 3 {
		s := min(n, 3)
		for k := range z.C {
			c := &z.C[k]
			if s != 2 {
				c.Conjugate(c)
			}
			switch {
			case k == 0:
			case s == 2:
				c.MulScalar(c, &frobGamma[1][k-1].C0)
			default:
				c.Mul(c, &frobGamma[s-1][k-1])
			}
		}
	}
	return z
}

// Inverse sets z = x⁻¹ using the Galois norm to Fp2: with σ = Frobenius²
// generating Gal(Fp12/Fp2), t = Π_{k=1..5} σ^k(x) and N = x·t ∈ Fp2, so
// x⁻¹ = t/N. Panics on zero input.
func (z *Fp12) Inverse(x *Fp12) *Fp12 {
	t := Fp12One()
	conj := new(Fp12).Set(x)
	for k := 1; k <= 5; k++ {
		conj.FrobeniusN(conj, 2)
		t.Mul(t, conj)
	}
	norm := new(Fp12).Mul(x, t)
	// norm lies in Fp2 (fixed by sigma); its higher coefficients vanish.
	for k := 1; k < 6; k++ {
		if !norm.C[k].IsZero() {
			panic("bn254: Fp12 norm not in Fp2")
		}
	}
	if norm.C[0].IsZero() {
		panic("bn254: inverse of zero Fp12 element")
	}
	nInv := new(Fp2).Inverse(&norm.C[0])
	return z.MulFp2(t, nInv)
}

// Conjugate sets z = x^(p^6), which for unitary elements (the cyclotomic
// subgroup GT lives in) equals x⁻¹: the map fixes Fp2 and sends w to -w.
func (z *Fp12) Conjugate(x *Fp12) *Fp12 {
	z.Set(x)
	for k := 1; k < 6; k += 2 {
		z.C[k].Neg(&z.C[k])
	}
	return z
}

// Exp sets z = x^e for a non-negative integer exponent e.
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

// String renders z as a polynomial in w.
func (z *Fp12) String() string {
	parts := make([]string, 0, 6)
	for k := 0; k < 6; k++ {
		if !z.C[k].IsZero() {
			parts = append(parts, "("+z.C[k].String()+")w^"+string(rune('0'+k)))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}
