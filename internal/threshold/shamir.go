// Package threshold shards the KGC master secret with Shamir secret
// sharing over the BN254 scalar field, so partial-private-key issuance
// needs the cooperation of any t of n share-holders and no single server
// can forge partial keys (the dominant practical attack on certificateless
// deployments is KGC compromise).
//
// The construction is the standard one: Split draws a uniformly random
// polynomial f of degree t−1 with f(0) = s over Z_r and hands share-holder
// j the evaluation s_j = f(j). Because Extract-Partial-Private-Key is the
// linear map s ↦ s·Q_ID, each holder can apply its share directly in the
// group: D_j = s_j·Q_ID, and any t such key shares Lagrange-combine to
//
//	D_ID = Σ_j λ_j·D_j = (Σ_j λ_j·s_j)·Q_ID = s·Q_ID,
//
// byte-identical to single-master issuance — which is kept in-tree as the
// differential oracle and pinned by FuzzThresholdVsSingleMaster. The master
// secret is never reconstructed anywhere in shipped code; the Lagrange
// reconstruction of f(0) lives in the tests, as the oracle side of the
// fuzzers.
package threshold

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// MaxShares bounds n. Share indices are 1-based small integers; the bound
// keeps Lagrange denominators trivially invertible and configs sane.
const MaxShares = 255

// Share is one Shamir share s_j = f(j) of the master secret. Index is the
// polynomial evaluation point j ∈ [1, n]; zero is never a valid index (it
// would be the secret itself). Epoch counts proactive refreshes (see
// refresh.go): Split mints epoch-0 shares, and every Refresh re-randomizes
// the polynomial — without changing f(0) — and advances the epoch by one.
// Shares from different epochs lie on different polynomials and must never
// be mixed in one reconstruction or combination.
type Share struct {
	Index uint8
	Epoch uint32
	Value fr.Element
}

// shareMarshalledSize is 1 index byte, a 4-byte big-endian epoch and a
// 32-byte big-endian scalar.
const shareMarshalledSize = 1 + 4 + 32

// Marshal encodes the share as Index‖Epoch‖Value (big-endian).
func (s *Share) Marshal() []byte {
	out := make([]byte, shareMarshalledSize)
	out[0] = s.Index
	binary.BigEndian.PutUint32(out[1:5], s.Epoch)
	v := s.Value.Bytes()
	copy(out[5:], v[:])
	return out
}

// UnmarshalShare decodes a share produced by Marshal.
func UnmarshalShare(data []byte) (*Share, error) {
	if len(data) != shareMarshalledSize {
		return nil, fmt.Errorf("threshold: share wants %d bytes, got %d", shareMarshalledSize, len(data))
	}
	s := &Share{Index: data[0], Epoch: binary.BigEndian.Uint32(data[1:5])}
	if s.Index == 0 {
		return nil, fmt.Errorf("threshold: share index zero")
	}
	if !s.Value.SetBytesCanonical(data[5:]) || s.Value.IsZero() {
		return nil, fmt.Errorf("threshold: share value out of range")
	}
	return s, nil
}

// Split shards secret into n shares with reconstruction threshold t
// (1 ≤ t ≤ n ≤ MaxShares). Passing a nil reader uses crypto/rand. The
// coefficients are drawn from Z_r*, so for t = 1
// every share equals the secret (a degree-0 polynomial), matching the
// single-master deployment exactly.
func Split(secret *big.Int, t, n int, rng io.Reader) ([]*Share, error) {
	if t < 1 || n < t || n > MaxShares {
		return nil, fmt.Errorf("threshold: invalid t-of-n %d-of-%d", t, n)
	}
	if secret == nil || secret.Sign() <= 0 || secret.Cmp(bn254.Order) >= 0 {
		return nil, fmt.Errorf("threshold: secret out of range")
	}
	values, err := evalPolynomial(*new(fr.Element).SetBigInt(secret), t, n, rng)
	if err != nil {
		return nil, fmt.Errorf("threshold: split: %w", err)
	}
	shares := make([]*Share, n)
	for j, v := range values {
		shares[j] = &Share{Index: uint8(j + 1), Value: v}
	}
	return shares, nil
}

// evalPolynomial draws a polynomial of degree t−1 with the given constant
// term and uniformly random nonzero higher coefficients, and returns its
// evaluations at 1..n (Horner).
func evalPolynomial(constant fr.Element, t, n int, rng io.Reader) ([]fr.Element, error) {
	coeffs := make([]fr.Element, t)
	coeffs[0] = constant
	for i := 1; i < t; i++ {
		c, err := fr.Random(rng)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	values := make([]fr.Element, n)
	for j := range values {
		x := fr.NewElement(uint64(j + 1))
		v := coeffs[t-1]
		for i := t - 2; i >= 0; i-- {
			v.Mul(&v, &x)
			v.Add(&v, &coeffs[i])
		}
		values[j] = v
	}
	return values, nil
}

// lagrangeAtZero returns the Lagrange interpolation coefficients
// λ_j = Π_{m≠j} x_m/(x_m − x_j) mod r evaluated at zero, one per input
// index. Indices must be nonzero and pairwise distinct.
func lagrangeAtZero(indices []uint8) ([]fr.Element, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("threshold: no shares")
	}
	seen := map[uint8]bool{}
	for _, j := range indices {
		if j == 0 {
			return nil, fmt.Errorf("threshold: share index zero")
		}
		if seen[j] {
			return nil, fmt.Errorf("threshold: duplicate share index %d", j)
		}
		seen[j] = true
	}
	out := make([]fr.Element, len(indices))
	for i, j := range indices {
		num, den := fr.One(), fr.One()
		xj := fr.NewElement(uint64(j))
		for _, m := range indices {
			if m == j {
				continue
			}
			xm := fr.NewElement(uint64(m))
			num.Mul(&num, &xm)
			den.Mul(&den, xm.Sub(&xm, &xj))
		}
		den.Inverse(&den) // distinct indices: every factor is nonzero
		out[i].Mul(&num, &den)
	}
	return out, nil
}
