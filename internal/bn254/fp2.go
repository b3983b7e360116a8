package bn254

import (
	"fmt"
	"math/big"

	"mccls/internal/bn254/fp"
)

// Fp2 is the quadratic extension Fp[i]/(i^2 + 1). An element is
// C0 + C1·i with fixed-width Montgomery coordinates (see internal/bn254/fp);
// the zero value is the field's zero, and arithmetic allocates nothing
// beyond the receiver.
//
// Methods follow the math/big convention: z.Op(x, y) stores x ∘ y into z and
// returns z. Receivers may alias arguments.
type Fp2 struct {
	C0, C1 fp.Element
}

// Fp2Zero returns the additive identity.
func Fp2Zero() *Fp2 { return &Fp2{} }

// Fp2One returns the multiplicative identity.
func Fp2One() *Fp2 { return &Fp2{C0: fp.One()} }

// fp2FromBig builds an element from canonical big.Int coefficients,
// reducing modulo p. It is a conversion-boundary helper, not constant time.
func fp2FromBig(c0, c1 *big.Int) *Fp2 {
	z := &Fp2{}
	z.C0.SetBigInt(c0)
	z.C1.SetBigInt(c1)
	return z
}

// Set copies x into z and returns z.
func (z *Fp2) Set(x *Fp2) *Fp2 {
	*z = *x
	return z
}

// IsZero reports whether z is the additive identity.
func (z *Fp2) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() }

// IsOne reports whether z is the multiplicative identity.
func (z *Fp2) IsOne() bool { return z.C0.IsOne() && z.C1.IsZero() }

// Equal reports whether z and x represent the same field element.
func (z *Fp2) Equal(x *Fp2) bool { return z.C0.Equal(&x.C0) && z.C1.Equal(&x.C1) }

// e2 views x as the coefficient pair of the fp kernels, which has Fp2's
// underlying type.
func e2(x *Fp2) *fp.E2 { return (*fp.E2)(x) }

// Add sets z = x + y.
func (z *Fp2) Add(x, y *Fp2) *Fp2 {
	e2(z).Add(e2(x), e2(y))
	return z
}

// Sub sets z = x - y.
func (z *Fp2) Sub(x, y *Fp2) *Fp2 {
	e2(z).Sub(e2(x), e2(y))
	return z
}

// Neg sets z = -x.
func (z *Fp2) Neg(x *Fp2) *Fp2 {
	z.C0.Neg(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Conjugate sets z = C0 - C1·i.
func (z *Fp2) Conjugate(x *Fp2) *Fp2 {
	z.C0.Set(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Mul sets z = x·y by Karatsuba (fp.E2.Mul).
func (z *Fp2) Mul(x, y *Fp2) *Fp2 {
	e2(z).Mul(e2(x), e2(y))
	return z
}

// MulByXi sets z = xi·x for the sextic non-residue xi = 9 + i:
// (a+bi)(9+i) = (9a-b) + (a+9b)i, computed with doublings and additions
// instead of multiplications.
func (z *Fp2) MulByXi(x *Fp2) *Fp2 {
	e2(z).MulByXi(e2(x))
	return z
}

// Halve sets z = x/2.
func (z *Fp2) Halve(x *Fp2) *Fp2 {
	z.C0.Halve(&x.C0)
	z.C1.Halve(&x.C1)
	return z
}

// Double sets z = 2x.
func (z *Fp2) Double(x *Fp2) *Fp2 {
	e2(z).Double(e2(x))
	return z
}

// Square sets z = x² = (a+b)(a-b) + 2ab·i (fp.E2.Square).
func (z *Fp2) Square(x *Fp2) *Fp2 {
	e2(z).Square(e2(x))
	return z
}

// MulScalar sets z = k·x for k ∈ Fp.
func (z *Fp2) MulScalar(x *Fp2, k *fp.Element) *Fp2 {
	z.C0.Mul(&x.C0, k)
	z.C1.Mul(&x.C1, k)
	return z
}

// Inverse sets z = x⁻¹ via (a+bi)⁻¹ = (a-bi)/(a²+b²). It panics on zero
// input, which indicates a programming error in the caller.
func (z *Fp2) Inverse(x *Fp2) *Fp2 {
	var norm, inv, t fp.Element
	norm.Mul(&x.C0, &x.C0)
	t.Mul(&x.C1, &x.C1)
	norm.Add(&norm, &t)
	if !inv.Inverse(&norm) {
		panic("bn254: inverse of zero Fp2 element")
	}
	z.C0.Mul(&x.C0, &inv)
	t.Mul(&x.C1, &inv)
	z.C1.Neg(&t)
	return z
}

// expFixed sets z = x^e for a public 256-bit exponent held as plain
// little-endian limbs, by the fixed 4-bit-window chain of fp.Element's
// expFixed: 14 multiplications fill the window table, then each exponent
// nibble costs four squarings plus (for nonzero nibbles) one table
// multiplication. The exponents are init-time constants of the modulus.
func (z *Fp2) expFixed(x *Fp2, e *[4]uint64) *Fp2 {
	var table [16]Fp2
	table[0] = *Fp2One()
	table[1] = *x
	for i := 2; i < 16; i++ {
		table[i].Mul(&table[i-1], x)
	}
	acc := table[(e[3]>>60)&0xf]
	for i := 62; i >= 0; i-- {
		acc.Square(&acc)
		acc.Square(&acc)
		acc.Square(&acc)
		acc.Square(&acc)
		if nib := (e[i/16] >> (uint(i%16) * 4)) & 0xf; nib != 0 {
			acc.Mul(&acc, &table[nib])
		}
	}
	*z = acc
	return z
}

// Sqrt sets z to a square root of x and returns z, or returns nil if x is
// not a square, by the norm method for p ≡ 3 (mod 4) (Adj & Rodríguez-
// Henríquez, "Square root computation over even extension fields"). Every
// √ below is fp.Element.Sqrt, the root that is itself a square in Fp. For
// x = a + b·i with b ≠ 0, x is a square exactly when its norm n = a² + b²
// is one in Fp; then exactly one of δ = (a ± √n)/2 is a square, and the
// root is √δ + b/(2√δ)·i, the one of ±y whose real part is a square, so
// the same root the complex method returns (DESIGN.md §6). For b = 0 it is
// (√a, 0), or (0, √−a) when a is not a square.
func (z *Fp2) Sqrt(x *Fp2) *Fp2 {
	var c Fp2
	var w fp.Element // 1/c.C0 when b ≠ 0
	if x.C1.IsZero() {
		if !c.C0.Sqrt(&w, &x.C0) {
			c.C1.Neg(&x.C0)
			c.C1.Sqrt(&w, &c.C1)
			c.C0.SetZero()
		}
	} else {
		var n, t, lambda, delta fp.Element
		n.Square(&x.C0)
		t.Square(&x.C1)
		n.Add(&n, &t)
		if !lambda.Sqrt(&w, &n) {
			return nil
		}
		delta.Add(&x.C0, &lambda)
		delta.Halve(&delta)
		if !c.C0.Sqrt(&w, &delta) {
			delta.Sub(&delta, &lambda)
			c.C0.Sqrt(&w, &delta)
		}
		c.C1.Mul(&x.C1, &w)
		c.C1.Halve(&c.C1)
	}
	var chk Fp2
	if !chk.Square(&c).Equal(x) {
		return nil
	}
	return z.Set(&c)
}

// String renders z as "c0 + c1*i" in decimal.
func (z *Fp2) String() string {
	return fmt.Sprintf("%v + %v*i", z.C0.String(), z.C1.String())
}
