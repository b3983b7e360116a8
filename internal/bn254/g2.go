package bn254

import (
	"fmt"
	"math/big"
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

// IsInSubgroup reports whether z lies in the order-r subgroup.
func (z *G2) IsInSubgroup() bool {
	return z.IsOnCurve() && new(G2).scalarMultFull(z, Order).IsInfinity()
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

// scalarMultFull computes k·a for an arbitrary-width non-negative k, without
// reducing modulo the group order. It is used for cofactor clearing and
// subgroup checks, where k may legitimately exceed r. The heavy lifting is
// a width-5 wNAF ladder (glv.go), cross-checked against the plain Jacobian
// and affine ladders in oracle_test.go.
func (z *G2) scalarMultFull(a *G2, k *big.Int) *G2 {
	opCounters.g2Mults.Add(1)
	return z.Set(g2ScalarMultWNAF(a, k))
}

// ScalarMult sets z = k·a for points already in the order-r subgroup.
// Negative k multiplies by -a.
func (z *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	return z.scalarMultFull(a, new(big.Int).Mod(k, Order))
}

// ScalarBaseMult sets z = k·G where G is the canonical generator.
func (z *G2) ScalarBaseMult(k *big.Int) *G2 { return z.ScalarMult(G2Generator(), k) }

// g2MarshalledSize is the byte length of a marshalled G2 point.
const g2MarshalledSize = 128

// Marshal encodes z as X.C0‖X.C1‖Y.C0‖Y.C1, 32 big-endian bytes each. The
// identity encodes as all zeroes.
func (z *G2) Marshal() []byte {
	out := make([]byte, g2MarshalledSize)
	if z.Inf {
		return out
	}
	for i, e := range [...][32]byte{z.X.C0.Bytes(), z.X.C1.Bytes(), z.Y.C0.Bytes(), z.Y.C1.Bytes()} {
		copy(out[32*i:32*(i+1)], e[:])
	}
	return out
}

// Unmarshal decodes a point produced by Marshal, validating both curve and
// subgroup membership (the twist has a large cofactor, so the subgroup check
// is mandatory for untrusted inputs).
func (z *G2) Unmarshal(data []byte) error {
	if len(data) != g2MarshalledSize {
		return fmt.Errorf("%w: G2 wants %d bytes, got %d", ErrInvalidPoint, g2MarshalledSize, len(data))
	}
	coords := make([]*big.Int, 4)
	allZero := true
	for k := 0; k < 4; k++ {
		coords[k] = new(big.Int).SetBytes(data[32*k : 32*(k+1)])
		if coords[k].Sign() != 0 {
			allZero = false
		}
		if coords[k].Cmp(P) >= 0 {
			return fmt.Errorf("%w: G2 coordinate out of range", ErrInvalidPoint)
		}
	}
	if allZero {
		z.Set(G2Infinity())
		return nil
	}
	cand := &G2{X: *fp2FromBig(coords[0], coords[1]), Y: *fp2FromBig(coords[2], coords[3])}
	if !cand.IsInSubgroup() {
		return fmt.Errorf("%w: G2 point not in subgroup", ErrInvalidPoint)
	}
	z.Set(cand)
	return nil
}

// HashToG2 maps an arbitrary message into the order-r subgroup of the twist
// by try-and-increment on the x-coordinate followed by cofactor clearing
// (multiplication by 2p - r).
func HashToG2(domain string, msg []byte) *G2 {
	for counter := uint32(0); ; counter++ {
		b0 := hashBlock(domain+"/x0", msg, counter)
		b1 := hashBlock(domain+"/x1", msg, counter)
		x := fp2FromBig(new(big.Int).SetBytes(b0), new(big.Int).SetBytes(b1))
		var rhs, y Fp2
		rhs.Square(x)
		rhs.Mul(&rhs, x)
		rhs.Add(&rhs, twistB)
		if y.Sqrt(&rhs) == nil {
			continue
		}
		if b0[len(b0)-1]&1 == 1 {
			y.Neg(&y)
		}
		pt := new(G2).scalarMultFull(&G2{X: *x, Y: y}, g2Cofactor)
		if pt.IsInfinity() {
			continue
		}
		return pt
	}
}

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
