package bn254

import (
	"strings"
	"unsafe"

	"mccls/internal/bn254/fp"
)

// Fp12 is the sextic extension Fp2[w]/(w^6 - xi) with xi = 9 + i. An element
// is sum_{k=0..5} C[k]·w^k. On this w-power basis the Frobenius acts
// coefficient-wise as conjugation times xi^(k(p-1)/6) and Miller lines are
// sparse (w⁰, w¹, w³); multiplication, squaring and inversion read the same
// coefficients as a quadratic extension of Fp6 (see fp6).
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
func (z *Fp12) IsOne() bool { return *z == Fp12{C: [6]Fp2{{C0: fp.One()}}} }

// Equal reports whether z and x represent the same field element: the
// coefficients are canonical, so limb equality is field equality.
func (z *Fp12) Equal(x *Fp12) bool { return *z == *x }

// fp6 is c[0] + c[1]·v + c[2]·v² in Fp6 = Fp2[v]/(v³ - xi). With v = w²,
// Fp12 = Fp6[w]/(w² - v) and x = a + b·w, where a holds the even and b the
// odd w-power coefficients of x: a view of Fp12.C, not a second
// representation.
type fp6 [3]Fp2

// split returns the Fp6 halves (a, b) of x = a + b·w.
func (x *Fp12) split() (a, b fp6) {
	return fp6{x.C[0], x.C[2], x.C[4]}, fp6{x.C[1], x.C[3], x.C[5]}
}

// join sets z = a + b·w.
func (z *Fp12) join(a, b *fp6) *Fp12 {
	z.C = [6]Fp2{a[0], b[0], a[1], b[1], a[2], b[2]}
	return z
}

func (z *fp6) add(x, y *fp6) {
	for i := range z {
		z[i].Add(&x[i], &y[i])
	}
}

func (z *fp6) sub(x, y *fp6) {
	for i := range z {
		z[i].Sub(&x[i], &y[i])
	}
}

// mulByV sets z = v·x: the coefficients rotate up and the wrapped one
// picks up xi.
func (z *fp6) mulByV(x *fp6) {
	var t Fp2
	t.MulByXi(&x[2])
	z[2], z[1], z[0] = x[1], x[0], t
}

// mul sets z = x·y, one kernel call (fp.MulE6): each output coefficient
// accumulates its three Fp2 products unreduced and reduces once.
func (z *fp6) mul(x, y *fp6) { fp.MulE6(e6(z), e6(x), e6(y)) }

// e6 views x as the fp kernels' three pairs (see e12).
func e6(x *fp6) *[3]fp.E2 { return (*[3]fp.E2)(unsafe.Pointer(x)) }

// inverse sets z = x⁻¹ by the norm to Fp2: with A = c0² - xi·c1c2,
// B = xi·c2² - c0c1 and C = c1² - c0c2, the product x·(A + B·v + C·v²) is
// N = c0·A + xi·(c2·B + c1·C) ∈ Fp2. Panics on zero input (N = 0).
func (z *fp6) inverse(x *fp6) {
	var a, b, c, n, t Fp2
	a.Square(&x[0])
	t.Mul(&x[1], &x[2])
	a.Sub(&a, t.MulByXi(&t))
	b.Square(&x[2])
	t.Mul(&x[0], &x[1])
	b.Sub(b.MulByXi(&b), &t)
	c.Square(&x[1])
	t.Mul(&x[0], &x[2])
	c.Sub(&c, &t)
	n.Mul(&x[2], &b)
	t.Mul(&x[1], &c)
	n.MulByXi(n.Add(&n, &t))
	t.Mul(&x[0], &a)
	n.Inverse(n.Add(&n, &t))
	z[0].Mul(&a, &n)
	z[1].Mul(&b, &n)
	z[2].Mul(&c, &n)
}

// Mul sets z = x·y by Karatsuba over the Fp6 view, three Fp6 products in one
// kernel call (fp.MulE12), with no branch on operand values.
func (z *Fp12) Mul(x, y *Fp12) *Fp12 {
	fp.MulE12(e12(z), e12(x), e12(y))
	return z
}

// Square sets z = x² by the complex method over the Fp6 view: with
// x = a + b·w, x² = ((a+b)(a+v·b) - ab - v·ab) + 2ab·w — two Fp6 products.
func (z *Fp12) Square(x *Fp12) *Fp12 {
	a, b := x.split()
	var ab, s, t fp6
	ab.mul(&a, &b)
	s.add(&a, &b)
	t.mulByV(&b)
	t.add(&t, &a)
	s.mul(&s, &t)
	s.sub(&s, &ab)
	t.mulByV(&ab)
	s.sub(&s, &t)
	ab.add(&ab, &ab)
	return z.join(&s, &ab)
}

// CyclotomicSquare sets z = x² for x in the cyclotomic subgroup (the image
// of the easy part of the final exponentiation, where x^(p^6+1) = 1): three
// Fp4 squarings in one kernel call (fp.CyclotomicSquare). For non-unitary x
// the result is not x².
func (z *Fp12) CyclotomicSquare(x *Fp12) *Fp12 {
	opCounters.cycSquares.Add(1)
	fp.CyclotomicSquare(e12(z), e12(x))
	return z
}

// e12 views x's coefficients as the fp kernels' six pairs: Fp2 has E2's
// underlying type, so the two arrays share one layout.
func e12(x *Fp12) *[6]fp.E2 { return (*[6]fp.E2)(unsafe.Pointer(&x.C)) }

// cycWindow is the wNAF width of the cyclotomic ladder: digits are odd with
// |d| ≤ 7, indexing the four odd powers x, x³, x⁵, x⁷.
const cycWindow = 4

// ExpCyclotomic sets z = x^e for a unitary x, e given as its width-cycWindow
// wNAF digits (wnafDigits, little-endian): one cyclotomic squaring per digit
// below the top one, one multiplication per nonzero digit plus three for
// the odd-power table; a negative digit multiplies by the conjugate, the
// free unitary inverse. The final exponentiation (uWNAF) and GT.Exp share
// this ladder.
func (z *Fp12) ExpCyclotomic(x *Fp12, digits []int8) *Fp12 {
	if len(digits) == 0 {
		return z.Set(Fp12One())
	}
	var tab [1 << (cycWindow - 2)]Fp12
	var sq, t Fp12
	tab[0] = *x
	sq.CyclotomicSquare(x)
	for i := 1; i < len(tab); i++ {
		tab[i].Mul(&tab[i-1], &sq)
	}
	top := len(digits) - 1
	acc := tab[digits[top]>>1] // a wNAF ends on a positive digit
	for i := top - 1; i >= 0; i-- {
		acc.CyclotomicSquare(&acc)
		switch d := digits[i]; {
		case d > 0:
			acc.Mul(&acc, &tab[d>>1])
		case d < 0:
			acc.Mul(&acc, t.Conjugate(&tab[-d>>1]))
		}
	}
	return z.Set(&acc)
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

// Inverse sets z = x⁻¹ through the norm to Fp6: with x = a + b·w,
// x⁻¹ = (a - b·w)·(a² - v·b²)⁻¹ — one Fp6 inversion and four Fp6
// products. Panics on zero input.
func (z *Fp12) Inverse(x *Fp12) *Fp12 {
	a, b := x.split()
	var n, t fp6
	n.mul(&a, &a)
	t.mul(&b, &b)
	t.mulByV(&t)
	n.sub(&n, &t)
	n.inverse(&n)
	a.mul(&a, &n)
	b.mul(&b, &n)
	t = fp6{}
	b.sub(&t, &b)
	return z.join(&a, &b)
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
