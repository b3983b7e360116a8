// Package fp implements the BN254 base field Fp with fixed-width
// arithmetic. An Element is four 64-bit limbs (little-endian) holding a
// residue in Montgomery form: the limbs encode a·R mod q with R = 2^256,
// so multiplication is a single CIOS (coarsely integrated operand
// scanning) pass instead of a generic trial-division reduction, and no
// operation allocates.
//
// Guarantees: Add, Sub, Neg, Double, Mul and Square run in constant time
// (branch-free limb arithmetic with mask selects). Inverse is the shared
// constant-time division-step inversion of internal/bn254/modinv (590
// steps whatever the input; the scalar field fr uses the same code under
// its own modulus). Sqrt's exponentiation schedule depends only on the
// public modulus. Conversions to and from math/big are NOT constant time
// and belong at serialization boundaries only.
package fp

import (
	"encoding/binary"
	"math/big"
	"math/bits"

	"mccls/internal/bn254/modinv"
)

// Element is an Fp residue in Montgomery form, little-endian limbs.
// The zero value is the field's zero. Elements are always kept in the
// canonical range [0, q).
type Element [4]uint64

// q is the BN254 base field modulus
// 21888242871839275222246405745257275088696311157297823662689037894645226208583,
// split into 64-bit limbs. The init self-check below re-derives every
// constant from the decimal string and aborts on any mismatch, so the hex
// literals are transcription-safe.
const (
	q0 = 0x3c208c16d87cfd47
	q1 = 0x97816a916871ca8d
	q2 = 0xb85045b68181585d
	q3 = 0x30644e72e131a029
)

// qInvNeg = -q⁻¹ mod 2^64, the Montgomery reduction factor.
const qInvNeg = 0x87d20782e4866389

var (
	// rSquare = R² mod q; multiplying by it converts into Montgomery form.
	rSquare = Element{0xf32cfc5b538afa89, 0xb5e71911d44501fb, 0x47ab1eff0a417ff6, 0x06d89f71cab8351f}

	// one = R mod q, the Montgomery image of 1.
	one = Element{0xd35d438dc58f0d9d, 0x0a78eb28f5c70b3d, 0x666ea36f7879462c, 0x0e0a77c19a07df2f}

	// rCubed = R³ mod q carries the plain inverse of a Montgomery value
	// back into Montgomery form (see Inverse); derived at init.
	rCubed Element

	// qBig is the modulus as a big.Int for the conversion boundary.
	qBig = mustDecimal("21888242871839275222246405745257275088696311157297823662689037894645226208583")

	// qQuarter = (q-3)/4 as plain limbs, the exponent of Sqrt: q ≡ 3
	// (mod 4), so it is q shifted right twice.
	qQuarter = [4]uint64{q0>>2 | q1&3<<62, q1>>2 | q2&3<<62, q2>>2 | q3&3<<62, q3 >> 2}

	inverter = modinv.NewModulus([4]uint64{q0, q1, q2, q3})
)

func mustDecimal(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("fp: invalid decimal literal")
	}
	return n
}

// bigToLimbs splits a non-negative v < 2^256 into little-endian limbs.
func bigToLimbs(v *big.Int) Element {
	var buf [32]byte
	v.FillBytes(buf[:])
	return limbsFromBytes(buf[:])
}

// limbsFromBytes reads 32 big-endian bytes as little-endian limbs.
func limbsFromBytes(b []byte) Element {
	return Element{
		binary.BigEndian.Uint64(b[24:32]), binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]), binary.BigEndian.Uint64(b[0:8]),
	}
}

// init cross-checks every hand-written constant against values derived
// from the decimal modulus, turning a transcription error into a startup
// panic instead of silently wrong field arithmetic.
func init() {
	if bigToLimbs(qBig) != (Element{q0, q1, q2, q3}) {
		panic("fp: modulus limbs disagree with decimal constant")
	}
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	if bigToLimbs(new(big.Int).Mod(r, qBig)) != one {
		panic("fp: R mod q constant is wrong")
	}
	r2 := new(big.Int).Mul(r, r)
	if bigToLimbs(r2.Mod(r2, qBig)) != rSquare {
		panic("fp: R² mod q constant is wrong")
	}
	// qInvNeg: q·(-q⁻¹) ≡ -1 mod 2^64.
	qInv := new(big.Int).ModInverse(qBig, new(big.Int).Lsh(big.NewInt(1), 64))
	want := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), qInv)
	if want.Uint64() != qInvNeg {
		panic("fp: Montgomery factor qInvNeg is wrong")
	}
	rCubed.Mul(&rSquare, &rSquare)
}

// NewElement returns v as a field element (in Montgomery form).
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// One returns the multiplicative identity.
func One() Element { return one }

// SetZero sets z = 0 and returns z.
func (z *Element) SetZero() *Element {
	*z = Element{}
	return z
}

// SetOne sets z = 1 and returns z.
func (z *Element) SetOne() *Element {
	*z = one
	return z
}

// Set copies x into z and returns z.
func (z *Element) Set(x *Element) *Element {
	*z = *x
	return z
}

// SetUint64 sets z = v and returns z.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v}
	return z.Mul(z, &rSquare)
}

// SetBigInt sets z = v mod q and returns z. Not constant time.
func (z *Element) SetBigInt(v *big.Int) *Element {
	m := new(big.Int).Mod(v, qBig)
	*z = bigToLimbs(m)
	return z.Mul(z, &rSquare)
}

// SetBytesCanonical sets z to the element whose big-endian encoding is b and
// reports whether b is canonical: exactly 32 bytes holding a value below q.
// On failure z is left untouched. The decode-boundary inverse of Bytes.
func (z *Element) SetBytesCanonical(b []byte) bool {
	if len(b) != 32 {
		return false
	}
	t := limbsFromBytes(b)
	r := t
	if r.reduce(); r != t { // reduce subtracts q exactly when t ≥ q
		return false
	}
	z.Mul(&t, &rSquare)
	return true
}

// SetBytes sets z to the 256-bit big-endian integer b reduced mod q and
// returns z; b must be 32 bytes. 2^256 < 6q, so five conditional
// subtractions canonicalise it.
func (z *Element) SetBytes(b []byte) *Element {
	t := limbsFromBytes(b)
	for i := 0; i < 5; i++ {
		t.reduce()
	}
	return z.Mul(&t, &rSquare)
}

// BigInt returns z as a canonical big.Int in [0, q). Not constant time.
func (z *Element) BigInt() *big.Int {
	buf := z.Bytes()
	return new(big.Int).SetBytes(buf[:])
}

// Bytes returns the 32-byte big-endian canonical encoding of z.
func (z *Element) Bytes() [32]byte {
	t := *z
	t.fromMont()
	var buf [32]byte
	for i := 0; i < 4; i++ {
		limb := t[i]
		for j := 0; j < 8; j++ {
			buf[31-8*i-j] = byte(limb >> (8 * j))
		}
	}
	return buf
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return *z == one }

// Equal reports whether z == x. Montgomery representatives are canonical,
// so limb equality is field equality.
func (z *Element) Equal(x *Element) bool { return *z == *x }

// reduce conditionally subtracts q so z lands in [0, q), without
// branching on the value.
func (z *Element) reduce() { reduceGeneric(z) }

// Add sets z = x + y and returns z.
func (z *Element) Add(x, y *Element) *Element {
	add(z, x, y)
	return z
}

// Double sets z = 2x and returns z.
func (z *Element) Double(x *Element) *Element {
	double(z, x)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	sub(z, x, y)
	return z
}

// Neg sets z = -x and returns z.
func (z *Element) Neg(x *Element) *Element {
	neg(z, x)
	return z
}

// Halve sets z = x/2 and returns z. An odd residue is made even by adding
// q (odd) first, so the logical right shift is exact; x + q < 2q < 2^255,
// so the sum never carries out of four limbs.
func (z *Element) Halve(x *Element) *Element {
	mask := uint64(0) - (x[0] & 1) // all-ones iff x is odd
	var c uint64
	t0, c := bits.Add64(x[0], q0&mask, 0)
	t1, c := bits.Add64(x[1], q1&mask, c)
	t2, c := bits.Add64(x[2], q2&mask, c)
	t3, _ := bits.Add64(x[3], q3&mask, c)
	z[0] = t0>>1 | t1<<63
	z[1] = t1>>1 | t2<<63
	z[2] = t2>>1 | t3<<63
	z[3] = t3 >> 1
	return z
}

// Mul sets z = x·y (Montgomery product) and returns z. On amd64 with
// ADX/BMI2 this is a MULX/ADCX/ADOX interleaved CIOS assembly kernel
// (fp_amd64.s); everywhere else (and under the purego build tag) it is
// the portable CIOS pass in fp_generic.go. Both paths are branch-free
// in the operand values.
func (z *Element) Mul(x, y *Element) *Element {
	mul(z, x, y)
	return z
}

// Square sets z = x² and returns z.
func (z *Element) Square(x *Element) *Element {
	square(z, x)
	return z
}

// fromMont converts z out of Montgomery form in place (divides by R),
// via four reduction rounds against a zero-extended operand.
func (z *Element) fromMont() {
	for i := 0; i < 4; i++ {
		m := z[0] * qInvNeg
		c := madd0(m, q0, z[0])
		c, z[0] = madd2(m, q1, z[1], c)
		c, z[1] = madd2(m, q2, z[2], c)
		c, z[2] = madd2(m, q3, z[3], c)
		z[3] = c
	}
	z.reduce()
}

// expFixed sets z = x^e for a public 256-bit exponent held as plain
// little-endian limbs, and returns z. It runs a fixed 4-bit-window
// addition chain: 14 multiplications fill the odd powers of the window
// table, then each exponent nibble costs four squarings plus (for
// nonzero nibbles) one table multiplication. The schedule is a function
// of e alone — the one exponent used here is a compile-time field
// constant — so nothing about x leaks through timing, and the whole
// chain lives on the stack (no math/big, 0 allocs/op).
func (z *Element) expFixed(x *Element, e *[4]uint64) *Element {
	var table [16]Element
	table[0] = one
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
		nib := (e[i/16] >> (uint(i%16) * 4)) & 0xf
		if nib != 0 {
			acc.Mul(&acc, &table[nib])
		}
	}
	*z = acc
	return z
}

// Inverse sets z = x⁻¹ and reports whether the inverse exists. Zero has
// no inverse: z is set to zero and ok is false. The shared inversion works
// on plain integers, so it sees x·R and returns x⁻¹·R⁻¹; one product with
// R³ restores Montgomery form. Nothing allocates.
func (z *Element) Inverse(x *Element) (ok bool) {
	ok = !x.IsZero()
	inverter.Inverse((*[4]uint64)(z), (*[4]uint64)(x))
	z.Mul(z, &rCubed)
	return ok
}

// Sqrt sets z = x^((q+1)/4) and w = x^((q-3)/4) by one exponentiation and
// reports whether z² = x, that is whether x is a square (zero counts).
// Since q ≡ 3 (mod 4), z is then the one of the two roots that is itself a
// square, and for x ≠ 0 w = 1/z, which spares a caller an inversion.
func (z *Element) Sqrt(w, x *Element) bool {
	var t, y, c Element
	t.expFixed(x, &qQuarter)
	y.Mul(&t, x)
	ok := c.Square(&y).Equal(x)
	*w, *z = t, y
	return ok
}

// String renders z as a canonical decimal residue (not constant time).
func (z *Element) String() string { return z.BigInt().String() }
