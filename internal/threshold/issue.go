package threshold

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mccls/internal/bn254"
	"mccls/internal/core"
)

// Signer is one share-holder: it issues partial-key *shares* D_j = s_j·Q_ID
// against its Shamir share and never sees the master secret or the other
// shares. This is the object a kgcd signer replica wraps. Issue and
// ApplyRefresh may race (a replica keeps serving while a refresh lands),
// so the share is guarded: an issuance sees either the old or the new
// share in full, never a torn mix, and the epoch it stamps on the key
// share is the one it issued under.
type Signer struct {
	params *core.Params

	mu    sync.RWMutex
	share *Share
}

// NewSigner binds a share to the public parameters it was split under.
func NewSigner(params *core.Params, share *Share) (*Signer, error) {
	if share == nil || share.Index == 0 {
		return nil, fmt.Errorf("threshold: signer needs a share with nonzero index")
	}
	if share.Value.IsZero() {
		return nil, fmt.Errorf("threshold: share value out of range")
	}
	return &Signer{params: params, share: share}, nil
}

// Index returns the share-holder's evaluation point j.
func (s *Signer) Index() uint8 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.share.Index
}

// Epoch returns the refresh epoch the signer currently issues under.
func (s *Signer) Epoch() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.share.Epoch
}

// Issue computes this holder's key share D_j = s_j·Q_ID for an identity,
// stamped with the epoch it was issued under.
func (s *Signer) Issue(id string) *KeyShare {
	s.mu.RLock()
	share := s.share
	s.mu.RUnlock()
	ppk := core.IssuePartialKey(s.params, id, &share.Value)
	return &KeyShare{ID: id, Index: share.Index, Epoch: share.Epoch, D: ppk.D}
}

// ApplyRefresh advances the signer's share by one epoch (see refresh.go).
// It is idempotent against retries: a delta addressed to this signer and
// targeting the epoch it is already at is reported as success without
// touching the share, so a coordinator that lost an acknowledgement can
// safely re-send. Another holder's delta or any other epoch mismatch is an
// error. Returns the epoch the signer is at after the call.
func (s *Signer) ApplyRefresh(d *Delta) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Index == s.share.Index && d.Epoch == s.share.Epoch {
		return s.share.Epoch, nil // retry of an already-applied refresh
	}
	next, err := s.share.Refresh(d)
	if err != nil {
		return s.share.Epoch, err
	}
	s.share = next
	return next.Epoch, nil
}

// KeyShare is one share-holder's contribution to a partial private key.
// Unlike a PartialPrivateKey it does not validate under the public
// parameters on its own; only a t-combination does. Epoch is the refresh
// epoch of the share it was issued under; only same-epoch key shares
// combine (they are evaluations of the same polynomial).
type KeyShare struct {
	ID    string
	Index uint8
	Epoch uint32
	D     *bn254.G2
}

// keyShareMarshalledSize is the byte length of the fixed part
// (index‖epoch‖D); the identity rides separately in the carrying protocol.
const keyShareMarshalledSize = 1 + 4 + 128

// Marshal encodes the share as Index‖Epoch‖D (128-byte uncompressed G2).
func (ks *KeyShare) Marshal() []byte {
	out := make([]byte, 5, keyShareMarshalledSize)
	out[0] = ks.Index
	binary.BigEndian.PutUint32(out[1:5], ks.Epoch)
	return ks.D.AppendMarshal(out)
}

// UnmarshalKeyShare decodes a key share for the given identity, validating
// the embedded point (curve and subgroup membership).
func UnmarshalKeyShare(id string, data []byte) (*KeyShare, error) {
	if len(data) != keyShareMarshalledSize {
		return nil, fmt.Errorf("threshold: key share wants %d bytes, got %d", keyShareMarshalledSize, len(data))
	}
	if data[0] == 0 {
		return nil, fmt.Errorf("threshold: key share index zero")
	}
	var d bn254.G2
	if err := d.Unmarshal(data[5:]); err != nil {
		return nil, fmt.Errorf("threshold: key share point: %w", err)
	}
	return &KeyShare{
		ID:    id,
		Index: data[0],
		Epoch: binary.BigEndian.Uint32(data[1:5]),
		D:     &d,
	}, nil
}

// Combine Lagrange-combines key shares into the partial private key
// D_ID = Σ λ_j·D_j. The caller is responsible for passing exactly t shares
// of a t-threshold split (a combiner enforces its quorum before calling);
// with fewer, the result is a well-formed group element that fails
// PartialPrivateKey.Validate. Shares must be for the same identity, carry
// pairwise-distinct indices and agree on the refresh epoch — mixed-epoch
// shares are evaluations of different polynomials and are rejected with
// ErrMixedEpochs rather than combined into garbage.
func Combine(id string, shares []*KeyShare) (*core.PartialPrivateKey, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("threshold: no key shares to combine")
	}
	indices := make([]uint8, len(shares))
	ds := make([]*bn254.G2, len(shares))
	for i, ks := range shares {
		if ks.ID != id {
			return nil, fmt.Errorf("threshold: key share for %q, want %q", ks.ID, id)
		}
		if ks.D == nil {
			return nil, fmt.Errorf("threshold: key share %d has no point", ks.Index)
		}
		if ks.Epoch != shares[0].Epoch {
			return nil, fmt.Errorf("threshold: %w: key share %d is epoch %d, key share %d is epoch %d",
				ErrMixedEpochs, ks.Index, ks.Epoch, shares[0].Index, shares[0].Epoch)
		}
		indices[i], ds[i] = ks.Index, ks.D
	}
	lambda, err := lagrangeAtZero(indices)
	if err != nil {
		return nil, err
	}
	return &core.PartialPrivateKey{ID: id, D: new(bn254.G2).MultiScalarMultFr(ds, lambda)}, nil
}
