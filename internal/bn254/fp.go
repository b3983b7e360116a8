package bn254

import (
	"io"
	"math/big"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// Base-field arithmetic lives in internal/bn254/fp and scalar-field
// arithmetic in internal/bn254/fr, both as fixed-width Montgomery
// elements. Scalars are fr.Element on every per-call path; *big.Int
// survives on the exported signatures that predate fr, each of which
// converts once (frFromBig) into the limb-typed implementation.
//
// fp.Element.Inverse reports failure explicitly instead of returning nil
// the way big.Int's ModInverse does. Its call sites are group-law slopes
// and Jacobian Z inversions where zero denominators are excluded by an
// earlier branch; fpMustInverse makes a violated invariant panic loudly
// instead of dereferencing nil.

// fpMustInverse sets z = x⁻¹ and panics on zero input. Use only where the
// caller has already established x ≠ 0.
func fpMustInverse(z, x *fp.Element) {
	if !z.Inverse(x) {
		panic("bn254: inverse of zero field element")
	}
}

// frFromBig reduces k modulo r into a limb-typed scalar: the one adapter
// under every *big.Int-typed scalar parameter.
func frFromBig(k *big.Int) *fr.Element { return new(fr.Element).SetBigInt(k) }

// RandomScalar returns a uniformly random element of Zr* (fr.Random at the
// *big.Int boundary).
func RandomScalar(rng io.Reader) (*big.Int, error) {
	k, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	return k.BigInt(), nil
}
