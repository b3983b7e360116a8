package bn254

import (
	"fmt"

	"mccls/internal/bn254/fp"
)

// Compressed point encodings: a signature's R and S components dominate
// McCLS's per-packet overhead in the MANET, so points can be shipped as an
// x-coordinate plus one sign bit, halving the wire size at the cost of a
// square root on decode.
//
// Prefix bytes follow the SEC1 convention: 0x00 = infinity (rest zero),
// 0x02/0x03 = compressed with the sign of y.

const (
	prefixInfinity   = 0x00
	prefixEvenY      = 0x02
	prefixOddY       = 0x03
	g1CompressedSize = 1 + 32
	g2CompressedSize = 1 + 64
)

// fp2IsNeg orders Fp2 lexicographically by (C1, C0) signs: the C1 sign
// decides unless C1 is zero, in which case the C0 sign does. The Fp "sign"
// is fp.Element.IsNeg: whether the value exceeds (p-1)/2, which is stable
// under negation (exactly one of y, -y is "negative").
func fp2IsNeg(a *Fp2) bool {
	if !a.C1.IsZero() {
		return a.C1.IsNeg()
	}
	return a.C0.IsNeg()
}

// MarshalCompressed encodes z in 33 bytes.
func (z *G1) MarshalCompressed() []byte {
	out := make([]byte, g1CompressedSize)
	if z.Inf {
		return out
	}
	if z.Y.IsNeg() {
		out[0] = prefixOddY
	} else {
		out[0] = prefixEvenY
	}
	xb := z.X.Bytes()
	copy(out[1:], xb[:])
	return out
}

// UnmarshalCompressed decodes a point produced by MarshalCompressed,
// solving the curve equation for y.
func (z *G1) UnmarshalCompressed(data []byte) error {
	if len(data) != g1CompressedSize {
		return fmt.Errorf("%w: compressed G1 wants %d bytes, got %d", ErrInvalidPoint, g1CompressedSize, len(data))
	}
	switch data[0] {
	case prefixInfinity:
		for _, b := range data[1:] {
			if b != 0 {
				return fmt.Errorf("%w: nonzero infinity encoding", ErrInvalidPoint)
			}
		}
		z.Set(G1Infinity())
		return nil
	case prefixEvenY, prefixOddY:
	default:
		return fmt.Errorf("%w: unknown prefix 0x%02x", ErrInvalidPoint, data[0])
	}
	var x, rhs, y fp.Element
	if !x.SetBytesCanonical(data[1:]) {
		return fmt.Errorf("%w: x out of range", ErrInvalidPoint)
	}
	rhs.Square(&x)
	rhs.Mul(&rhs, &x)
	rhs.Add(&rhs, &curveB)
	if !y.Sqrt(&rhs) {
		return fmt.Errorf("%w: x not on curve", ErrInvalidPoint)
	}
	if y.IsNeg() != (data[0] == prefixOddY) {
		y.Neg(&y)
	}
	z.X, z.Y, z.Inf = x, y, false
	return nil
}

// MarshalCompressed encodes z in 65 bytes.
func (z *G2) MarshalCompressed() []byte {
	out := make([]byte, g2CompressedSize)
	if z.Inf {
		return out
	}
	if fp2IsNeg(&z.Y) {
		out[0] = prefixOddY
	} else {
		out[0] = prefixEvenY
	}
	c0, c1 := z.X.C0.Bytes(), z.X.C1.Bytes()
	copy(out[1:33], c0[:])
	copy(out[33:], c1[:])
	return out
}

// UnmarshalCompressed decodes a point produced by MarshalCompressed,
// validating subgroup membership as Unmarshal does.
func (z *G2) UnmarshalCompressed(data []byte) error {
	if len(data) != g2CompressedSize {
		return fmt.Errorf("%w: compressed G2 wants %d bytes, got %d", ErrInvalidPoint, g2CompressedSize, len(data))
	}
	switch data[0] {
	case prefixInfinity:
		for _, b := range data[1:] {
			if b != 0 {
				return fmt.Errorf("%w: nonzero infinity encoding", ErrInvalidPoint)
			}
		}
		z.Set(G2Infinity())
		return nil
	case prefixEvenY, prefixOddY:
	default:
		return fmt.Errorf("%w: unknown prefix 0x%02x", ErrInvalidPoint, data[0])
	}
	var cand G2
	x, y := &cand.X, &cand.Y
	if !x.C0.SetBytesCanonical(data[1:33]) || !x.C1.SetBytesCanonical(data[33:]) {
		return fmt.Errorf("%w: x out of range", ErrInvalidPoint)
	}
	var rhs Fp2
	rhs.Square(x)
	rhs.Mul(&rhs, x)
	rhs.Add(&rhs, twistB)
	if y.Sqrt(&rhs) == nil {
		return fmt.Errorf("%w: x not on twist curve", ErrInvalidPoint)
	}
	if fp2IsNeg(y) != (data[0] == prefixOddY) {
		y.Neg(y)
	}
	if !cand.IsInSubgroup() {
		return fmt.Errorf("%w: G2 point not in subgroup", ErrInvalidPoint)
	}
	z.Set(&cand)
	return nil
}
