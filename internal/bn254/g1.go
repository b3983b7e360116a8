package bn254

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// G1 is a point of the order-r group E(Fp): y² = x³ + 3, in affine
// coordinates with Montgomery-form field elements. The zero value is NOT
// valid; use G1Infinity, G1Generator or one of the constructors. For BN
// curves #E(Fp) = r, so every curve point is in the subgroup.
//
// Methods follow the math/big convention: z.Op(x, y) stores the result in z
// and returns z.
type G1 struct {
	X, Y fp.Element
	// Inf marks the point at infinity; X and Y are ignored when set.
	Inf bool
}

// G1Infinity returns the identity element.
func G1Infinity() *G1 { return &G1{Inf: true} }

// G1Generator returns the canonical generator (1, 2).
func G1Generator() *G1 { return &G1{X: fp.NewElement(1), Y: fp.NewElement(2)} }

// Set copies x into z and returns z.
func (z *G1) Set(x *G1) *G1 {
	*z = *x
	return z
}

// IsInfinity reports whether z is the identity.
func (z *G1) IsInfinity() bool { return z.Inf }

// Equal reports whether z and x are the same point.
func (z *G1) Equal(x *G1) bool {
	if z.Inf || x.Inf {
		return z.Inf == x.Inf
	}
	return z.X.Equal(&x.X) && z.Y.Equal(&x.Y)
}

// IsOnCurve reports whether z satisfies y² = x³ + 3 (the identity counts as
// on-curve). Field elements are canonical by construction, so no range
// check is needed here; decode paths validate ranges before reduction.
func (z *G1) IsOnCurve() bool {
	if z.Inf {
		return true
	}
	var lhs, rhs fp.Element
	lhs.Square(&z.Y)
	rhs.Square(&z.X)
	rhs.Mul(&rhs, &z.X)
	rhs.Add(&rhs, &curveB)
	return lhs.Equal(&rhs)
}

// Neg sets z = -x.
func (z *G1) Neg(x *G1) *G1 {
	if x.Inf {
		return z.Set(x)
	}
	z.X.Set(&x.X)
	z.Y.Neg(&x.Y)
	z.Inf = false
	return z
}

// Add sets z = a + b: b added to a in Jacobian coordinates, then one
// inversion back to affine.
func (z *G1) Add(a, b *G1) *G1 {
	if b.Inf {
		return z.Set(a)
	}
	var j g1Jac
	j.fromAffine(a)
	j.addMixed(b)
	return j.affine(z)
}

// ScalarMult sets z = k·a via GLV decomposition and a joint wNAF ladder
// (see glv.go), k reduced modulo r first (the split keeps -k as short as k).
//
// With Montgomery-form arithmetic a field inversion costs about a hundred
// multiplications, so the ladder runs in Jacobian coordinates under a
// single inversion at the end, and the GLV split halves its doubling count.
// The plain Jacobian and affine ladders are the differential oracles in
// oracle_test.go (TestG1GLVMatchesJacobian, TestJacobianMatchesAffine); see
// DESIGN.md §5–6.
func (z *G1) ScalarMult(a *G1, k *big.Int) *G1 { return z.ScalarMultFr(a, frFromBig(k)) }

// ScalarMultFr is ScalarMult for a limb-typed scalar: the implementation.
func (z *G1) ScalarMultFr(a *G1, k *fr.Element) *G1 {
	opCounters.g1Mults.Add(1)
	var buf [2][halfDigits]int8
	rows := glv.rows(buf[:], []fr.Element{*k})
	acc := g1Joint(a, rows[:2])
	return acc.affine(z)
}

// ScalarBaseMult sets z = k·G where G is the canonical generator, using the
// precomputed fixed-base window table (table.go): ~32 mixed additions, no
// doublings, one inversion.
func (z *G1) ScalarBaseMult(k *big.Int) *G1 { return z.ScalarBaseMultAddFr(frFromBig(k), nil) }

// ScalarBaseMultAdd sets z = k·G + q, folding the extra addition into the
// fixed-base accumulation so the sum costs no additional normalization.
// Verify uses this to compute (V·h⁻¹)·P - R in one pass. q may be the
// identity.
func (z *G1) ScalarBaseMultAdd(k *big.Int, q *G1) *G1 {
	return z.ScalarBaseMultAddFr(frFromBig(k), q)
}

// g1MarshalledSize is the byte length of a marshalled G1 point.
const g1MarshalledSize = 64

// Marshal encodes z as X‖Y, 32 big-endian bytes each. The identity encodes
// as all zeroes.
func (z *G1) Marshal() []byte { return z.AppendMarshal(make([]byte, 0, g1MarshalledSize)) }

// AppendMarshal appends the Marshal encoding of z to dst.
func (z *G1) AppendMarshal(dst []byte) []byte {
	if z.Inf {
		return append(dst, make([]byte, g1MarshalledSize)...)
	}
	xb, yb := z.X.Bytes(), z.Y.Bytes()
	return append(append(dst, xb[:]...), yb[:]...)
}

var (
	// ErrInvalidPoint reports a malformed or off-curve encoded point.
	ErrInvalidPoint = errors.New("bn254: invalid point encoding")
)

// Unmarshal decodes a point produced by Marshal, validating coordinate
// range and curve membership.
func (z *G1) Unmarshal(data []byte) error {
	if len(data) != g1MarshalledSize {
		return fmt.Errorf("%w: G1 wants %d bytes, got %d", ErrInvalidPoint, g1MarshalledSize, len(data))
	}
	var cand G1
	if !cand.X.SetBytesCanonical(data[:32]) || !cand.Y.SetBytesCanonical(data[32:]) {
		return fmt.Errorf("%w: G1 coordinate out of range", ErrInvalidPoint)
	}
	if cand.X.IsZero() && cand.Y.IsZero() {
		z.Set(G1Infinity())
		return nil
	}
	if !cand.IsOnCurve() {
		return fmt.Errorf("%w: G1 point not on curve", ErrInvalidPoint)
	}
	z.Set(&cand)
	return nil
}

// hashBlock derives 32-byte blocks from (domain, msg) via
// SHA-256(domain ‖ suffix ‖ counter ‖ msg); suffix separates the
// coordinates HashToG2 draws under one domain. Inputs that fit the stack
// buffer — every identity and routing message in the tree — allocate
// nothing.
func hashBlock(domain, suffix string, msg []byte, counter uint32) [32]byte {
	var stack [256]byte
	buf := append(append(stack[:0], domain...), suffix...)
	buf = binary.BigEndian.AppendUint32(buf, counter)
	return sha256.Sum256(append(buf, msg...))
}

// HashToFr maps an arbitrary message to a nonzero scalar in Zr*, reducing
// 512 bits of hash output to keep the bias negligible.
func HashToFr(domain string, msg []byte) (k fr.Element) {
	for counter := uint32(0); ; counter += 2 {
		var wide [64]byte
		lo, hi := hashBlock(domain, "", msg, counter), hashBlock(domain, "", msg, counter+1)
		copy(wide[:32], lo[:])
		copy(wide[32:], hi[:])
		if !k.SetBytesWide(&wide).IsZero() {
			return k
		}
	}
}

// String renders the point for debugging.
func (z *G1) String() string {
	if z.Inf {
		return "G1(inf)"
	}
	return fmt.Sprintf("G1(%v, %v)", z.X.String(), z.Y.String())
}
