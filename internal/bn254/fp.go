package bn254

import (
	"crypto/rand"
	"io"
	"math/big"

	"mccls/internal/bn254/fp"
)

// Base-field arithmetic lives in the internal/bn254/fp sub-package as
// fixed-width Montgomery elements; this file keeps only the scalar-field
// helpers (scalars stay *big.Int — they are mod-r values that cross the
// public API) and the nonzero-inverse guard.
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

// RandomScalar returns a uniformly random element of Zr*.
func RandomScalar(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	for {
		k, err := rand.Int(rng, Order)
		if err != nil {
			return nil, err
		}
		if k.Sign() != 0 {
			return k, nil
		}
	}
}
