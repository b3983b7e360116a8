package fp

import "math/bits"

// Wide is an unreduced 512-bit accumulator for lazy-reduction tower
// arithmetic: it holds a sum of full (pre-Montgomery-reduction) limb
// products x·y plus optional q² padding terms, little-endian. Callers
// accumulate several products into one Wide and pay a single Montgomery
// reduction (Reduce) at the end instead of one per product.
//
// Contract: the accumulated value must stay below 4·q·R (≈ 21.2 q², with
// q ≈ 0.189·R, R = 2^256) — Reduce's REDC output is then < 5q and its
// four fixed conditional-subtract passes land in [0, q). Every lazy
// call site in internal/bn254 documents its slot budget against this
// bound; TestWideAccumulationBounds pins the worst case with all-limbs
// q−1 operands.
//
// All Wide operations are branch-free in the operand values.
type Wide [8]uint64

// qSquaredWide is q² as a Wide, the padding quantum that keeps lazy
// subtractions non-negative: a single product x·y of canonical elements
// is < q², so w + q² − x·y never underflows. Filled in by init below
// from the q limbs (a pure integer multiply, no field semantics).
var qSquaredWide Wide

func init() {
	qLimbs := Element{q0, q1, q2, q3}
	mulWideGeneric(&qSquaredWide, &qLimbs, &qLimbs)
}

// looseAdd sets z = x + y WITHOUT modular reduction. The sum of two
// canonical elements is < 2q < 2^256, so it fits the four limbs; the
// result is NOT canonical and may only flow into Wide.Mul operands
// (Karatsuba cross terms need the exact integer sum to keep
// s·s' − ac − bd non-negative without padding).
func looseAdd(z, x, y *Element) *Element {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
	return z
}

// Mul sets w to the full 512-bit product x·y (no reduction) and returns
// w. Operands may be canonical (< q, product < q²) or loose sums (< 2q,
// product < 4q²); the caller's slot budget accounts for which.
func (w *Wide) Mul(x, y *Element) *Wide {
	mulWide(w, x, y)
	return w
}

// add sets w += v and returns w. The caller's budget guarantees the sum
// stays below 4qR, so the top limb never carries out.
func (w *Wide) add(v *Wide) *Wide {
	var c uint64
	w[0], c = bits.Add64(w[0], v[0], 0)
	w[1], c = bits.Add64(w[1], v[1], c)
	w[2], c = bits.Add64(w[2], v[2], c)
	w[3], c = bits.Add64(w[3], v[3], c)
	w[4], c = bits.Add64(w[4], v[4], c)
	w[5], c = bits.Add64(w[5], v[5], c)
	w[6], c = bits.Add64(w[6], v[6], c)
	w[7], _ = bits.Add64(w[7], v[7], c)
	return w
}

// sub sets w -= v and returns w. The caller must guarantee w ≥ v as
// integers — either through an exact identity (Karatsuba's
// s·s' ≥ ac + bd) or by adding an addQSquared pad first.
func (w *Wide) sub(v *Wide) *Wide {
	var b uint64
	w[0], b = bits.Sub64(w[0], v[0], 0)
	w[1], b = bits.Sub64(w[1], v[1], b)
	w[2], b = bits.Sub64(w[2], v[2], b)
	w[3], b = bits.Sub64(w[3], v[3], b)
	w[4], b = bits.Sub64(w[4], v[4], b)
	w[5], b = bits.Sub64(w[5], v[5], b)
	w[6], b = bits.Sub64(w[6], v[6], b)
	w[7], _ = bits.Sub64(w[7], v[7], b)
	return w
}

// addQSquared sets w += q² and returns w: one padding quantum per
// subtracted single product. q² ≡ 0 mod q, so padding never changes the
// reduced value.
func (w *Wide) addQSquared() *Wide { return w.add(&qSquaredWide) }

// Reduce Montgomery-reduces the accumulator into z (z = w·R⁻¹ mod q,
// canonical) and returns z. Contract: w < 4qR. The REDC quotient adds
// at most qR, keeping the running value below 5qR < 2^512, and the
// output below 5q, which the four masked subtract passes bring into
// [0, q) without branching.
func (w *Wide) Reduce(z *Element) *Element {
	reduceWide(z, w)
	return z
}

// mulWideGeneric is the portable 4×4 schoolbook product: row i of x
// scans y, accumulating into limbs i..i+4. It doubles as the
// differential oracle for the amd64 kernel.
func mulWideGeneric(w *Wide, x, y *Element) {
	var t [8]uint64
	for i := 0; i < 4; i++ {
		v := x[i]
		var c uint64
		c, t[i+0] = madd2(v, y[0], t[i+0], c)
		c, t[i+1] = madd2(v, y[1], t[i+1], c)
		c, t[i+2] = madd2(v, y[2], t[i+2], c)
		c, t[i+3] = madd2(v, y[3], t[i+3], c)
		t[i+4] = c
	}
	*w = Wide(t)
}

// reduceWideGeneric is the portable full-width REDC: four rounds each
// zero the lowest live limb by adding m·q (m = t₀·(−q⁻¹) mod 2^64) and
// ripple the carry to the top, then four masked conditional subtracts
// canonicalise the < 5q result. Fixed flow: loop bounds and the subtract
// passes depend on nothing but the limb width.
func reduceWideGeneric(z *Element, w *Wide) {
	t := *w
	for j := 0; j < 4; j++ {
		m := t[j] * qInvNeg
		c := madd0(m, q0, t[j])
		c, t[j+1] = madd2(m, q1, t[j+1], c)
		c, t[j+2] = madd2(m, q2, t[j+2], c)
		c, t[j+3] = madd2(m, q3, t[j+3], c)
		var cr uint64
		t[j+4], cr = bits.Add64(t[j+4], c, 0)
		for k := j + 5; k < 8; k++ {
			t[k], cr = bits.Add64(t[k], 0, cr)
		}
	}
	*z = Element{t[4], t[5], t[6], t[7]}
	z.reduce()
	z.reduce()
	z.reduce()
	z.reduce()
}
