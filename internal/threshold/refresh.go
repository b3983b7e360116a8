package threshold

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mccls/internal/bn254/fr"
)

// Proactive share refresh (Herzberg-style, dealer-assisted): a mobile
// adversary that compromises share-holders one at a time can eventually
// collect t shares — unless the shares it stole stop being useful. A
// refresh draws a fresh polynomial g of degree t−1 with the *zero*
// constant term g(0) = 0 and hands holder j the delta δ_j = g(j). The
// holder's new share is
//
//	s_j' = s_j + δ_j = f(j) + g(j) = (f+g)(j),
//
// a share of the same master secret (f+g)(0) = f(0) = s on a polynomial
// whose other coefficients are brand new. Shares stolen before a refresh
// and shares stolen after it lie on unrelated polynomials, so the
// adversary's collection window shrinks to one epoch. The master secret
// never changes and — as everywhere in this package — never materializes:
// the deltas are generated from randomness alone, without touching s.
//
// Epoch bookkeeping makes the "never mix polynomials" rule mechanical:
// every share and every issued key share carries the epoch it was minted
// under, Combine rejects mixed-epoch sets, and a refresh is only accepted
// if it advances a share by exactly one epoch.

// ErrMixedEpochs marks an attempt to combine shares minted under different
// refresh epochs (they lie on different polynomials; the
// result would be an unrelated field/group element).
var ErrMixedEpochs = errors.New("mixed share epochs")

// Delta is one holder's refresh increment δ_j = g(j) for the refresh that
// advances its share to Epoch. A zero Value is legal (always, with
// probability 1/r; deterministically for t = 1, where g must be the zero
// polynomial).
type Delta struct {
	Index uint8
	Epoch uint32
	Value fr.Element
}

// deltaMarshalledSize is 1 index byte, 4 epoch bytes and a 32-byte scalar.
const deltaMarshalledSize = 1 + 4 + 32

// Marshal encodes the delta as Index‖Epoch‖Value (big-endian).
func (d *Delta) Marshal() []byte {
	out := make([]byte, deltaMarshalledSize)
	out[0] = d.Index
	binary.BigEndian.PutUint32(out[1:5], d.Epoch)
	v := d.Value.Bytes()
	copy(out[5:], v[:])
	return out
}

// UnmarshalDelta decodes a delta produced by Marshal.
func UnmarshalDelta(data []byte) (*Delta, error) {
	if len(data) != deltaMarshalledSize {
		return nil, fmt.Errorf("threshold: delta wants %d bytes, got %d", deltaMarshalledSize, len(data))
	}
	d := &Delta{Index: data[0], Epoch: binary.BigEndian.Uint32(data[1:5])}
	if d.Index == 0 {
		return nil, fmt.Errorf("threshold: delta index zero")
	}
	if d.Epoch == 0 {
		return nil, fmt.Errorf("threshold: delta epoch zero (epoch 0 is the initial split)")
	}
	if !d.Value.SetBytesCanonical(data[5:]) {
		return nil, fmt.Errorf("threshold: delta value out of range")
	}
	return d, nil
}

// RefreshDeltas draws one refresh: a polynomial g of degree t−1 with
// g(0) = 0 evaluated at every holder index 1..n. All n deltas come from the
// same g — a refresh is all-or-nothing across the holder set; applying a
// partial set leaves the holders on different polynomials, which the epoch
// bookkeeping then surfaces as ErrMixedEpochs instead of silent corruption.
// toEpoch is the epoch the shares advance TO (current epoch + 1, ≥ 1).
// A nil rng uses crypto/rand.
func RefreshDeltas(t, n int, toEpoch uint32, rng io.Reader) ([]*Delta, error) {
	if t < 1 || n < t || n > MaxShares {
		return nil, fmt.Errorf("threshold: invalid t-of-n %d-of-%d", t, n)
	}
	if toEpoch == 0 {
		return nil, fmt.Errorf("threshold: refresh cannot target epoch 0")
	}
	// g(x) = c_1·x + … + c_{t−1}·x^{t−1}; for t = 1 the polynomial is
	// identically zero (a degree-0 polynomial through zero has no freedom),
	// so the refresh is numerically a no-op and only the epoch advances.
	values, err := evalPolynomial(fr.Element{}, t, n, rng)
	if err != nil {
		return nil, fmt.Errorf("threshold: refresh: %w", err)
	}
	deltas := make([]*Delta, n)
	for j, v := range values {
		deltas[j] = &Delta{Index: uint8(j + 1), Epoch: toEpoch, Value: v}
	}
	return deltas, nil
}

// Refresh applies a delta to a share, returning the next-epoch share
// s_j' = s_j + δ_j. The delta must carry the share's index and advance it
// by exactly one epoch; skipping an epoch would mean a missed refresh and a
// share on the wrong polynomial.
func (s *Share) Refresh(d *Delta) (*Share, error) {
	if d.Index != s.Index {
		return nil, fmt.Errorf("threshold: delta for index %d applied to share %d", d.Index, s.Index)
	}
	if d.Epoch != s.Epoch+1 {
		return nil, fmt.Errorf("threshold: delta advances to epoch %d, share is at epoch %d", d.Epoch, s.Epoch)
	}
	var v fr.Element
	if v.Add(&s.Value, &d.Value); v.IsZero() {
		// (f+g)(j) ≡ 0 happens with probability 1/r ≈ 2^−254; a zero share
		// would be rejected everywhere downstream, so surface it as a
		// redraw request rather than minting an unusable share.
		return nil, fmt.Errorf("threshold: refresh produced a zero share; redraw the refresh polynomial")
	}
	return &Share{Index: s.Index, Epoch: d.Epoch, Value: v}, nil
}
