package core

import (
	"fmt"
	"io"
	"math/big"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// PublicKey is a user's certificateless public key P_ID = x·P_pub. There is
// no certificate: the key is transmitted alongside signatures (or through
// any directory) and its binding to the identity is enforced by the
// verification equation itself.
type PublicKey struct {
	ID  string
	PID *bn254.G1
}

// Marshal encodes the public key as len(ID)‖ID‖P_ID.
func (pk *PublicKey) Marshal() []byte {
	out := make([]byte, 0, 8+len(pk.ID)+64)
	return pk.PID.AppendMarshal(appendLengthPrefixed(out, []byte(pk.ID)))
}

// UnmarshalPublicKey decodes a public key, validating the embedded point.
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	id, rest, err := readLengthPrefixed(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	return NewPublicKey(string(id), rest)
}

// NewPublicKey is the one validating P_ID decode: the public key of id
// whose point is the bare 64-byte encoding pid, which must be on the curve
// and not the identity element. Callers that carry the identity out of
// band (a node index, a scheme's user ID) use it directly.
func NewPublicKey(id string, pid []byte) (*PublicKey, error) {
	var p bn254.G1
	if err := p.Unmarshal(pid); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	if p.IsInfinity() {
		return nil, fmt.Errorf("%w: P_ID is the identity element", ErrInvalidKey)
	}
	return &PublicKey{ID: id, PID: &p}, nil
}

// PrivateKey is a user's full signing key: the secret value x chosen by the
// user, and S = x⁻¹·D_ID, the message-independent half of every signature
// (precomputed once, as the paper's operation counts assume).
type PrivateKey struct {
	pub *PublicKey
	x   fr.Element
	s   *bn254.G2
}

// GenerateKeyPair runs the Generate-Key-Pair algorithm: draw the secret
// value x ← Zr*, set P_ID = x·P_pub and precompute S = x⁻¹·D_ID. The partial
// key is validated first so a corrupted KGC response is caught here rather
// than at first verification failure. Passing a nil reader uses crypto/rand.
func GenerateKeyPair(params *Params, ppk *PartialPrivateKey, rng io.Reader) (*PrivateKey, error) {
	if err := ppk.Validate(params); err != nil {
		return nil, err
	}
	x, err := fr.Random(rng)
	if err != nil {
		return nil, fmt.Errorf("mccls: keygen: %w", err)
	}
	return newPrivateKey(params, ppk, &x), nil
}

// NewPrivateKeyFromSecret deterministically rebuilds a private key from a
// stored secret value x and the partial private key.
func NewPrivateKeyFromSecret(params *Params, ppk *PartialPrivateKey, x *big.Int) (*PrivateKey, error) {
	if x == nil || x.Sign() <= 0 || x.Cmp(bn254.Order) >= 0 {
		return nil, fmt.Errorf("%w: secret value out of range", ErrInvalidKey)
	}
	if err := ppk.Validate(params); err != nil {
		return nil, err
	}
	return newPrivateKey(params, ppk, new(fr.Element).SetBigInt(x)), nil
}

// newPrivateKey derives the key for a secret value x ≠ 0.
func newPrivateKey(params *Params, ppk *PartialPrivateKey, x *fr.Element) *PrivateKey {
	var xInv fr.Element
	xInv.Inverse(x)
	return &PrivateKey{
		pub: &PublicKey{ID: ppk.ID, PID: new(bn254.G1).ScalarMultFr(params.Ppub, x)},
		x:   *x,
		s:   new(bn254.G2).ScalarMultFr(ppk.D, &xInv),
	}
}

// Public returns the corresponding public key.
func (sk *PrivateKey) Public() *PublicKey { return sk.pub }

// ID returns the identity the key is bound to.
func (sk *PrivateKey) ID() string { return sk.pub.ID }

// SecretValue returns a copy of x for durable storage.
func (sk *PrivateKey) SecretValue() *big.Int { return sk.x.BigInt() }
