package bn254

import (
	"fmt"
	"math/big"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// G2 is a point of the order-r subgroup of the sextic twist
// E'(Fp2): y² = x³ + 3/xi, in affine coordinates with value-type Fp2
// coordinates. Unlike G1, the twist has a large cofactor (2p - r), so
// points from hashing are cofactor-cleared and points from untrusted
// encodings are subgroup-checked.
type G2 struct {
	X, Y Fp2
	// Inf marks the point at infinity; X and Y are ignored when set.
	Inf bool
}

// G2Infinity returns the identity element.
func G2Infinity() *G2 { return &G2{Inf: true} }

// g2Gen holds the canonical generator (the alt_bn128 generator used by
// go-ethereum and gnark); validated by tests against curve and subgroup
// membership.
var g2Gen = &G2{
	X: *fp2FromBig(
		mustBig("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
		mustBig("11559732032986387107991004021392285783925812861821192530917403151452391805634"),
	),
	Y: *fp2FromBig(
		mustBig("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
		mustBig("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
	),
}

// G2Generator returns the canonical generator.
func G2Generator() *G2 { return new(G2).Set(g2Gen) }

// Set copies x into z and returns z.
func (z *G2) Set(x *G2) *G2 {
	*z = *x
	return z
}

// IsInfinity reports whether z is the identity.
func (z *G2) IsInfinity() bool { return z.Inf }

// Equal reports whether z and x are the same point.
func (z *G2) Equal(x *G2) bool {
	if z.Inf || x.Inf {
		return z.Inf == x.Inf
	}
	return z.X.Equal(&x.X) && z.Y.Equal(&x.Y)
}

// IsOnCurve reports whether z satisfies the twist equation y² = x³ + 3/xi
// (the identity counts as on-curve). It does not check subgroup membership;
// see IsInSubgroup.
func (z *G2) IsOnCurve() bool {
	if z.Inf {
		return true
	}
	var lhs, rhs Fp2
	lhs.Square(&z.Y)
	rhs.Square(&z.X)
	rhs.Mul(&rhs, &z.X)
	rhs.Add(&rhs, twistB)
	return lhs.Equal(&rhs)
}

// IsInSubgroup reports whether z lies in the order-r subgroup: z is on the
// twist and [u+1]Q + ψ([u]Q) + ψ²([u]Q) = ψ³([2u]Q), where ψ = frobeniusTwist
// acts on the subgroup as multiplication by p. This BN test (El Housni–
// Guillevic–Piellard, eprint 2022/348) costs 63 doublings instead of the 254
// of [r]Q and accepts exactly the same points: DESIGN.md §6 has the argument,
// TestPsiSubgroupNorm recomputes it.
func (z *G2) IsInSubgroup() bool {
	if !z.IsOnCurve() {
		return false
	}
	opCounters.g2Mults.Add(1)
	if z.Inf {
		return true
	}
	// [u]Q: the digits of a NAF are ±1, so Q alone is the table.
	q := [1]G2{*z}
	var sum g2Jac
	sum.setInfinity()
	walkWNAF([][]int8{uNAF}, sum.double, func(_ int, d int8) { sum.addDigit(q[:], d) })
	t := sum
	sum.addMixed(z)
	t.frobeniusTwist()
	sum.add(&t)
	t.frobeniusTwist()
	sum.add(&t)
	// Subtract ψ³([2u]Q) = 2ψ³([u]Q): the identity holds iff nothing is left.
	t.frobeniusTwist()
	t.double()
	t.y.Neg(&t.y)
	sum.add(&t)
	return sum.isInfinity()
}

// Neg sets z = -x.
func (z *G2) Neg(x *G2) *G2 {
	z.X.Set(&x.X)
	z.Y.Neg(&x.Y)
	z.Inf = x.Inf
	return z
}

// Add sets z = a + b by the affine chord-and-tangent rule.
func (z *G2) Add(a, b *G2) *G2 {
	if a.Inf {
		return z.Set(b)
	}
	if b.Inf {
		return z.Set(a)
	}
	if a.X.Equal(&b.X) {
		if !a.Y.Equal(&b.Y) {
			return z.Set(G2Infinity())
		}
		return z.Double(a)
	}
	var lambda, den, x3, y3 Fp2
	lambda.Sub(&b.Y, &a.Y)
	den.Sub(&b.X, &a.X)
	lambda.Mul(&lambda, den.Inverse(&den))
	x3.Square(&lambda)
	x3.Sub(&x3, &a.X)
	x3.Sub(&x3, &b.X)
	y3.Sub(&a.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.Y)
	z.X, z.Y, z.Inf = x3, y3, false
	return z
}

// Double sets z = 2a.
func (z *G2) Double(a *G2) *G2 {
	if a.Inf || a.Y.IsZero() {
		return z.Set(G2Infinity())
	}
	var lambda, t, den, x3, y3 Fp2
	t.Square(&a.X)
	lambda.Add(&t, &t)
	lambda.Add(&lambda, &t) // 3x²
	den.Add(&a.Y, &a.Y)
	lambda.Mul(&lambda, den.Inverse(&den))
	x3.Square(&lambda)
	x3.Sub(&x3, &a.X)
	x3.Sub(&x3, &a.X)
	y3.Sub(&a.X, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.Y)
	z.X, z.Y, z.Inf = x3, y3, false
	return z
}

// ScalarMult sets z = k·a with k reduced modulo r first; the ψ split
// (glv.go) keeps a negative k as short as |k|. The endomorphism is a scalar
// only on the order-r subgroup, so a must be a decoded (subgroup-checked) or
// derived point, never a raw point of the twist.
func (z *G2) ScalarMult(a *G2, k *big.Int) *G2 { return z.ScalarMultFr(a, frFromBig(k)) }

// ScalarMultFr is ScalarMult for a limb-typed scalar: MultiScalarMultFr's
// one-point case.
func (z *G2) ScalarMultFr(a *G2, k *fr.Element) *G2 {
	return z.MultiScalarMultFr([]*G2{a}, []fr.Element{*k})
}

// MultiScalarMultFr sets z = Σ ksᵢ·ptsᵢ for points of the order-r subgroup
// (decoded, hashed or derived, as for ScalarMult): per slice of glsSlice
// points the four ψ-split rows of every scalar, one table build and one
// walk whose doublings all points share, then one normalization. Points may
// repeat, cancel or be the identity. It counts one G2 multiplication per
// point.
func (z *G2) MultiScalarMultFr(pts []*G2, ks []fr.Element) *G2 {
	opCounters.g2Mults.Add(uint64(len(pts)))
	var sum g2Jac
	sum.setInfinity()
	for len(pts) > 0 {
		n := min(len(pts), glsSlice)
		var buf [2 * jointSlice][halfDigits]int8
		rows := gls.rows(&buf, ks[:n])
		acc := g2Joint(pts[:n], rows[:4*n])
		sum.add(&acc)
		pts, ks = pts[n:], ks[n:]
	}
	return sum.affine(z)
}

// g2MarshalledSize is the byte length of a marshalled G2 point.
const g2MarshalledSize = 128

// Marshal encodes z as X.C0‖X.C1‖Y.C0‖Y.C1, 32 big-endian bytes each. The
// identity encodes as all zeroes.
func (z *G2) Marshal() []byte { return z.AppendMarshal(make([]byte, 0, g2MarshalledSize)) }

// AppendMarshal appends the Marshal encoding of z to dst.
func (z *G2) AppendMarshal(dst []byte) []byte {
	if z.Inf {
		return append(dst, make([]byte, g2MarshalledSize)...)
	}
	for _, c := range [...]*fp.Element{&z.X.C0, &z.X.C1, &z.Y.C0, &z.Y.C1} {
		b := c.Bytes()
		dst = append(dst, b[:]...)
	}
	return dst
}

// Unmarshal is UnmarshalOnCurve followed by the subgroup check, which the
// twist's large cofactor makes mandatory before a pairing or ScalarMult.
func (z *G2) Unmarshal(data []byte) error {
	var cand G2
	if err := cand.UnmarshalOnCurve(data); err != nil {
		return err
	}
	if !cand.Inf && !cand.IsInSubgroup() {
		return fmt.Errorf("%w: G2 point not in subgroup", ErrInvalidPoint)
	}
	z.Set(&cand)
	return nil
}

// UnmarshalOnCurve decodes a point produced by Marshal, validating that the
// encoding is canonical and the point on the twist, not in the subgroup: the
// caller checks that first, by IsInSubgroup or the Miller loop pairing it.
func (z *G2) UnmarshalOnCurve(data []byte) error {
	if len(data) != g2MarshalledSize {
		return fmt.Errorf("%w: G2 wants %d bytes, got %d", ErrInvalidPoint, g2MarshalledSize, len(data))
	}
	var cand G2
	for i, c := range [...]*fp.Element{&cand.X.C0, &cand.X.C1, &cand.Y.C0, &cand.Y.C1} {
		if !c.SetBytesCanonical(data[32*i : 32*(i+1)]) {
			return fmt.Errorf("%w: G2 coordinate out of range", ErrInvalidPoint)
		}
	}
	if cand.X.IsZero() && cand.Y.IsZero() {
		z.Set(G2Infinity())
		return nil
	}
	if !cand.IsOnCurve() {
		return fmt.Errorf("%w: G2 point not on curve", ErrInvalidPoint)
	}
	z.Set(&cand)
	return nil
}

// clearCofactor returns Y = [u]q + ψ([3u]q) + ψ²([u]q) + ψ³(q) for any point
// q of the twist (Fuentes-Castañeda–Knapp–Rodríguez-Henríquez, SAC 2011):
// Y is in G2 and [2p - r]q = c′·Y for the fixed c′ = hashToG2Scale, so Y = O
// exactly when [2p - r]q = O. One 63-bit walk on q alone, like IsInSubgroup's.
func clearCofactor(z, q *G2) *G2 {
	opCounters.g2Mults.Add(1)
	tab := [1]G2{*q}
	var a g2Jac // [u]q
	a.setInfinity()
	walkWNAF([][]int8{uNAF}, a.double, func(_ int, d int8) { a.addDigit(tab[:], d) })
	t, pa := a, a // t = [3u]q + ψ([u]q), so ψ(t) = ψ([3u]q) + ψ²([u]q)
	t.double()
	t.add(&a)
	pa.frobeniusTwist()
	t.add(&pa)
	t.frobeniusTwist()
	a.add(&t)
	var p3 G2
	a.addMixed(p3.frobeniusTwist(p3.frobeniusTwist(p3.frobeniusTwist(q))))
	return a.affine(z)
}

// HashToG2Short maps an arbitrary message into the order-r subgroup of the
// twist by try-and-increment on the x-coordinate followed by clearCofactor:
// HashToG2 = c′·HashToG2Short for c′ = HashToG2Scale(), which callers fold
// into a scalar or point they already pay for. Half of all candidates have
// no square root; Sqrt's first step, the root of the Fp norm of x³ + b',
// turns those away for one base-field exponentiation.
func HashToG2Short(domain string, msg []byte) *G2 {
	for counter := uint32(0); ; counter++ {
		b0 := hashBlock(domain, "/x0", msg, counter)
		b1 := hashBlock(domain, "/x1", msg, counter)
		var pt G2
		pt.X.C0.SetBytes(b0[:])
		pt.X.C1.SetBytes(b1[:])
		var rhs Fp2
		rhs.Square(&pt.X)
		rhs.Mul(&rhs, &pt.X)
		rhs.Add(&rhs, twistB)
		if pt.Y.Sqrt(&rhs) == nil {
			continue
		}
		if b0[len(b0)-1]&1 == 1 {
			pt.Y.Neg(&pt.Y)
		}
		if clearCofactor(&pt, &pt).IsInfinity() {
			continue
		}
		return new(G2).Set(&pt)
	}
}

// HashToG2 is the exact hash: the try-and-increment candidate times the
// cofactor 2p - r, as c′·HashToG2Short.
func HashToG2(domain string, msg []byte) *G2 {
	return new(G2).ScalarMultFr(HashToG2Short(domain, msg), &hashToG2Scale)
}

// HashToG2Scale returns c′, the scalar with HashToG2 = c′·HashToG2Short.
func HashToG2Scale() fr.Element { return hashToG2Scale }

// frobeniusTwist applies the untwist-Frobenius-twist endomorphism
// π(x, y) = (x̄·xi^((p-1)/3), ȳ·xi^((p-1)/2)) used by the optimal-ate
// pairing.
func (z *G2) frobeniusTwist(a *G2) *G2 {
	if a.Inf {
		return z.Set(a)
	}
	var x, y Fp2
	x.Conjugate(&a.X)
	x.Mul(&x, xiToPMinus1Over3)
	y.Conjugate(&a.Y)
	y.Mul(&y, xiToPMinus1Over2)
	z.X, z.Y, z.Inf = x, y, false
	return z
}

// String renders the point for debugging.
func (z *G2) String() string {
	if z.Inf {
		return "G2(inf)"
	}
	return fmt.Sprintf("G2(%v, %v)", z.X.String(), z.Y.String())
}
