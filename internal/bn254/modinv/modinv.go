// Package modinv is the one modular inversion of the BN254 stack: a
// constant-time Bernstein–Yang "safegcd" (eprint 2019/266) over signed
// 62-bit limbs, in the shape of libsecp256k1's modinv64. Both the base
// field (internal/bn254/fp) and the scalar field (internal/bn254/fr) call
// it through a Modulus descriptor; there is no variable-time twin.
//
// The algorithm runs a fixed 10 batches of 59 division steps. 590 steps
// bring g to zero for every odd modulus below 2^256 and every input (the
// half-delta bound of Pieter Wuille's convex-hull analysis, which
// libsecp256k1 relies on for the same limb layout), so the trip count is a
// constant. Inside a batch each step selects with masks derived from the
// sign of ζ and the low bit of g — no branch, no table index and no shift
// count depends on a value — and the matrix application and the final
// normalisation are straight-line limb arithmetic.
package modinv

import "math/bits"

const m62 = 1<<62 - 1

// signed62 is an integer Σ v[i]·2^(62i): limbs 0–3 in [0, 2^62), limb 4
// signed.
type signed62 [5]int64

// Modulus describes an odd modulus m < 2^256.
type Modulus struct {
	m     signed62
	inv62 uint64 // m⁻¹ mod 2^62
}

// NewModulus builds the descriptor for the odd modulus with the given
// little-endian 64-bit limbs.
func NewModulus(m [4]uint64) *Modulus {
	if m[0]&1 == 0 {
		panic("modinv: even modulus")
	}
	inv := m[0] // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - m[0]*inv
	}
	return &Modulus{m: toSigned62(&m), inv62: inv & m62}
}

func toSigned62(x *[4]uint64) signed62 {
	return signed62{
		int64(x[0] & m62),
		int64((x[0]>>62 | x[1]<<2) & m62),
		int64((x[1]>>60 | x[2]<<4) & m62),
		int64((x[2]>>58 | x[3]<<6) & m62),
		int64(x[3] >> 56),
	}
}

// Inverse sets z = x⁻¹ mod m for x in [0, m), as plain (non-Montgomery)
// little-endian limbs. Zero, the one input without an inverse, maps to
// zero. z may alias x.
func (m *Modulus) Inverse(z, x *[4]uint64) {
	var d, e signed62
	e[0] = 1
	f, g := m.m, toSigned62(x)
	zeta := int64(-1) // ζ = -(δ + 1/2), δ = 1/2 at the start
	for i := 0; i < 10; i++ {
		var t trans
		zeta = divsteps59(zeta, uint64(f[0]), uint64(g[0]), &t)
		m.updateDE(&d, &e, &t)
		updateFG(&f, &g, &t)
	}
	// g = 0 now and f = ±gcd(m, x) = ±1 (m for x = 0): d is ± the inverse.
	m.normalize(&d, f[4])
	z[0] = uint64(d[0]) | uint64(d[1])<<62
	z[1] = uint64(d[1])>>2 | uint64(d[2])<<60
	z[2] = uint64(d[2])>>4 | uint64(d[3])<<58
	z[3] = uint64(d[3])>>6 | uint64(d[4])<<56
}

// trans is 2^62 times the transition matrix of 59 division steps.
type trans struct{ u, v, q, r int64 }

// divsteps59 runs 59 division steps on the low limbs of (f, g), returning
// the new ζ and the matrix t with t·(f, g) = 2^62·(f', g'), entries in
// [-2^62, 2^62] held as uint64 so that the left shifts are defined.
func divsteps59(zeta int64, f, g uint64, t *trans) int64 {
	u, v, q, r := uint64(8), uint64(0), uint64(0), uint64(8)
	for i := 3; i < 62; i++ {
		c1 := uint64(zeta >> 63) // all-ones iff ζ < 0 (δ > 0)
		c2 := -(g & 1)           // all-ones iff g is odd
		// g += ±f (and the matrix row with it) when g is odd.
		g += ((f ^ c1) - c1) & c2
		q += ((u ^ c1) - c1) & c2
		r += ((v ^ c1) - c1) & c2
		// When ζ < 0 and g was odd the step swaps: ζ ← -ζ-2 and f ← old g;
		// otherwise ζ ← ζ-1.
		c1 &= c2
		zeta = (zeta ^ int64(c1)) - 1
		f += g & c1
		u += q & c1
		v += r & c1
		g >>= 1
		u <<= 1
		v <<= 1
	}
	*t = trans{int64(u), int64(v), int64(q), int64(r)}
	return zeta
}

// acc is a signed 128-bit accumulator.
type acc struct{ hi, lo uint64 }

// addMul adds the signed product a·b.
func (c *acc) addMul(a, b int64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, lo, 0)
	c.hi += hi + carry
}

// shift drops the low 62 bits (arithmetic shift) and returns them.
func (c *acc) shift() int64 {
	low := int64(c.lo & m62)
	c.lo = c.lo>>62 | c.hi<<2
	c.hi = uint64(int64(c.hi) >> 62)
	return low
}

// updateDE sets (d, e) = t·(d, e)/2^62 mod m, keeping both in (-2m, m):
// multiples md·m and me·m chosen to clear the low 62 bits make the
// division exact.
func (m *Modulus) updateDE(d, e *signed62, t *trans) {
	sd, se := d[4]>>63, e[4]>>63
	md := t.u&sd + t.v&se
	me := t.q&sd + t.r&se
	var cd, ce acc
	cd.addMul(t.u, d[0])
	cd.addMul(t.v, e[0])
	ce.addMul(t.q, d[0])
	ce.addMul(t.r, e[0])
	md -= int64((m.inv62*cd.lo + uint64(md)) & m62)
	me -= int64((m.inv62*ce.lo + uint64(me)) & m62)
	cd.addMul(m.m[0], md)
	ce.addMul(m.m[0], me)
	cd.shift()
	ce.shift()
	for i := 1; i < 5; i++ {
		cd.addMul(t.u, d[i])
		cd.addMul(t.v, e[i])
		cd.addMul(m.m[i], md)
		ce.addMul(t.q, d[i])
		ce.addMul(t.r, e[i])
		ce.addMul(m.m[i], me)
		d[i-1], e[i-1] = cd.shift(), ce.shift()
	}
	d[4], e[4] = int64(cd.lo), int64(ce.lo)
}

// updateFG sets (f, g) = t·(f, g)/2^62; the division steps guarantee the
// low 62 bits of the product are zero.
func updateFG(f, g *signed62, t *trans) {
	var cf, cg acc
	cf.addMul(t.u, f[0])
	cf.addMul(t.v, g[0])
	cg.addMul(t.q, f[0])
	cg.addMul(t.r, g[0])
	cf.shift()
	cg.shift()
	for i := 1; i < 5; i++ {
		cf.addMul(t.u, f[i])
		cf.addMul(t.v, g[i])
		cg.addMul(t.q, f[i])
		cg.addMul(t.r, g[i])
		f[i-1], g[i-1] = cf.shift(), cg.shift()
	}
	f[4], g[4] = int64(cf.lo), int64(cg.lo)
}

// normalize brings r from (-2m, m) to [0, m), negating it first when sign
// is negative.
func (m *Modulus) normalize(r *signed62, sign int64) {
	neg := sign >> 63
	for pass := 0; pass < 2; pass++ {
		add := r[4] >> 63 // add m iff r < 0
		for i := range r {
			r[i] += m.m[i] & add
			if pass == 0 {
				r[i] = (r[i] ^ neg) - neg
			}
		}
		for i := 0; i < 4; i++ {
			r[i+1] += r[i] >> 62
			r[i] &= m62
		}
	}
}
