package threshold

import (
	"fmt"
	"math/big"

	"mccls/internal/bn254/fr"
)

// Reconstruct recovers f(0) from the given shares by Lagrange interpolation
// at zero — the one place the master secret is ever materialised, which is
// why it is compiled into test binaries only: the oracle side of
// FuzzThresholdVsSingleMaster and FuzzRefreshVsSingleMaster. It needs
// exactly the shares it is given: pass t genuine shares of a t-threshold
// split and the result is the secret; pass fewer and the result is an
// unrelated field element.
func Reconstruct(shares []*Share) (*big.Int, error) {
	indices := make([]uint8, len(shares))
	for i, s := range shares {
		if s.Epoch != shares[0].Epoch {
			return nil, fmt.Errorf("threshold: %w: share %d is epoch %d, share %d is epoch %d",
				ErrMixedEpochs, s.Index, s.Epoch, shares[0].Index, shares[0].Epoch)
		}
		indices[i] = s.Index
	}
	lambda, err := lagrangeAtZero(indices)
	if err != nil {
		return nil, err
	}
	var acc, term fr.Element
	for i, s := range shares {
		acc.Add(&acc, term.Mul(&lambda[i], &s.Value))
	}
	return acc.BigInt(), nil
}
