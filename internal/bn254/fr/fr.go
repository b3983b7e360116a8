// Package fr implements the BN254 scalar field Zr — the integers modulo
// the prime group order r — as fp's sibling: an Element is four 64-bit
// limbs (little-endian) holding a·R mod r with R = 2^256, arithmetic is
// one CIOS Montgomery pass, and nothing allocates.
//
// Guarantees: Add, Sub, Neg, Mul, Inverse, SetBytesWide, Bytes and Limbs
// are branch-free in the values they handle; Inverse is the shared
// constant-time division-step inversion of internal/bn254/modinv. Random
// rejects out-of-range draws, which leaks only how many draws were thrown
// away. SetBigInt and BigInt are not constant time and belong at the
// *big.Int boundary of the exported API only.
package fr

import (
	"crypto/rand"
	"encoding/binary"
	"io"
	"math/big"
	"math/bits"

	"mccls/internal/bn254/modinv"
)

// Element is a residue mod r in Montgomery form, always in [0, r). The
// zero value is the field's zero.
type Element [4]uint64

// r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
// = 36u⁴ + 36u³ + 18u² + 6u + 1, checked against the decimal string at init.
var r = Element{0x43e1f593f0000001, 0x2833e84879b97091, 0xb85045b68181585d, 0x30644e72e131a029}

var (
	rBig, _ = new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	rInvNeg uint64 // -r⁻¹ mod 2^64
	// one, rSquare and rCubed are R, R² and R³ mod r as plain limbs:
	// Montgomery 1, and the factors that carry a plain value into
	// Montgomery form and a plain inverse of a Montgomery value back.
	one, rSquare, rCubed Element
	inverter             = modinv.NewModulus([4]uint64(r))
)

func init() {
	if fromBig(rBig) != r {
		panic("fr: modulus limbs disagree with decimal constant")
	}
	inv := r[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - r[0]*inv
	}
	rInvNeg = -inv
	pow := big.NewInt(1)
	for _, z := range []*Element{&one, &rSquare, &rCubed} {
		*z = fromBig(pow.Mod(pow.Lsh(pow, 256), rBig))
	}
}

func fromBig(v *big.Int) Element {
	var buf [32]byte
	v.FillBytes(buf[:])
	return fromBytes(buf[:])
}

// fromBytes reads 32 big-endian bytes as little-endian limbs.
func fromBytes(b []byte) Element {
	return Element{
		binary.BigEndian.Uint64(b[24:32]), binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]), binary.BigEndian.Uint64(b[0:8]),
	}
}

// Modulus returns a fresh copy of r.
func Modulus() *big.Int { return new(big.Int).Set(rBig) }

// One returns the multiplicative identity.
func One() Element { return one }

// NewElement returns v as a field element.
func NewElement(v uint64) Element { return *new(Element).SetLimbs([4]uint64{v}) }

// SetLimbs sets z to the plain integer x < r, little-endian limbs — the
// inverse of Limbs — and returns z.
func (z *Element) SetLimbs(x [4]uint64) *Element {
	*z = x
	return z.Mul(z, &rSquare)
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// subR sets z = t - r when t ≥ r and z = t otherwise, by mask select.
// t < 2r carries its 257th bit in hi.
func (z *Element) subR(t *Element, hi uint64) {
	var d Element
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(t[i], r[i], b)
	}
	_, b = bits.Sub64(hi, 0, b)
	keep := -b // all-ones iff the subtraction borrowed (t < r)
	for i := range d {
		z[i] = t[i]&keep | d[i]&^keep
	}
}

// Add sets z = x + y and returns z.
func (z *Element) Add(x, y *Element) *Element {
	var t Element
	var c uint64
	for i := range t {
		t[i], c = bits.Add64(x[i], y[i], c)
	}
	z.subR(&t, c)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	var b, c uint64
	for i := range z {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	mask := -b // all-ones iff we borrowed: add r back
	for i := range z {
		z[i], c = bits.Add64(z[i], r[i]&mask, c)
	}
	return z
}

// Neg sets z = -x and returns z.
func (z *Element) Neg(x *Element) *Element { return z.Sub(&Element{}, x) }

// Mul sets z = x·y·R⁻¹ mod r — the Montgomery product — and returns z.
// y must be canonical; x may be any 256-bit value (SetBytesWide and the
// decode paths rely on that): each round adds less than 2^64·(y + r) and
// divides by 2^64, so the running value stays below 2r < 2^255.
func (z *Element) Mul(x, y *Element) *Element {
	var t [5]uint64
	for i := 0; i < 4; i++ {
		var c, k uint64
		for j := 0; j < 4; j++ { // t += x[i]·y
			hi, lo := bits.Mul64(x[i], y[j])
			lo, k = bits.Add64(lo, c, 0)
			c = hi + k
			t[j], k = bits.Add64(t[j], lo, 0)
			c += k
		}
		t[4] += c
		m := t[0] * rInvNeg // t = (t + m·r) / 2^64
		hi, lo := bits.Mul64(m, r[0])
		_, k = bits.Add64(t[0], lo, 0)
		c = hi + k
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, r[j])
			lo, k = bits.Add64(lo, c, 0)
			c = hi + k
			t[j-1], k = bits.Add64(t[j], lo, 0)
			c += k
		}
		t[3], t[4] = t[4]+c, 0
	}
	z.subR((*Element)(t[:4]), 0)
	return z
}

// Inverse sets z = x⁻¹ and reports whether the inverse exists; for x = 0
// it sets z = 0 and returns false. The shared inversion works on plain
// integers, so it sees x·R and returns x⁻¹·R⁻¹; one product with R³
// restores Montgomery form.
func (z *Element) Inverse(x *Element) (ok bool) {
	ok = !x.IsZero()
	inverter.Inverse((*[4]uint64)(z), (*[4]uint64)(x))
	z.Mul(z, &rCubed)
	return ok
}

// Limbs returns z as a plain integer in [0, r), little-endian limbs: what
// scalar-multiplication ladders read their digits from.
func (z *Element) Limbs() [4]uint64 {
	var t Element
	t.Mul(z, &Element{1})
	return t
}

// Bytes returns the canonical 32-byte big-endian encoding of z.
func (z *Element) Bytes() (out [32]byte) {
	t := z.Limbs()
	for i, limb := range t {
		binary.BigEndian.PutUint64(out[24-8*i:], limb)
	}
	return out
}

// SetBytesCanonical sets z to the element whose big-endian encoding is b
// and reports whether b is canonical: exactly 32 bytes holding a value
// below r. On failure z is left untouched.
func (z *Element) SetBytesCanonical(b []byte) bool {
	if len(b) != 32 {
		return false
	}
	t := fromBytes(b)
	var red Element
	if red.subR(&t, 0); red != t {
		return false
	}
	z.Mul(&t, &rSquare)
	return true
}

// SetBytesWide sets z to the 512-bit big-endian integer b reduced mod r
// and returns z: hi·2^256 + lo enters Montgomery form as hi·R³ + lo·R².
func (z *Element) SetBytesWide(b *[64]byte) *Element {
	hi, lo := fromBytes(b[:32]), fromBytes(b[32:])
	hi.Mul(&hi, &rCubed)
	lo.Mul(&lo, &rSquare)
	return z.Add(&hi, &lo)
}

// Random returns a uniformly random nonzero element. It consumes rng
// exactly as crypto/rand.Int(rng, r) in a retry-on-zero loop does — 32
// bytes per draw, the top two bits cleared, a draw at or above r thrown
// away — so a seeded reader yields the scalars it always has. A nil rng
// uses crypto/rand.
func Random(rng io.Reader) (z Element, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	var buf [32]byte
	for {
		if _, err = io.ReadFull(rng, buf[:]); err != nil {
			return Element{}, err
		}
		buf[0] &= 0x3f
		if z.SetBytesCanonical(buf[:]) && !z.IsZero() {
			return z, nil
		}
	}
}

// SetBigInt sets z = v mod r and returns z. Not constant time.
func (z *Element) SetBigInt(v *big.Int) *Element {
	if v.Sign() < 0 || v.Cmp(rBig) >= 0 {
		v = new(big.Int).Mod(v, rBig)
	}
	t := fromBig(v)
	return z.Mul(&t, &rSquare)
}

// BigInt returns z as a big.Int in [0, r). Not constant time.
func (z *Element) BigInt() *big.Int {
	b := z.Bytes()
	return new(big.Int).SetBytes(b[:])
}

// String renders z as a decimal residue.
func (z *Element) String() string { return z.BigInt().String() }
