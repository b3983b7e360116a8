package core

import (
	"fmt"
	"io"
	"math/big"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// KGC is the Key Generation Center. It holds the master secret s and issues
// partial private keys D_ID = s·H1(ID). In a certificateless system the KGC
// is semi-trusted: it can issue partial keys but cannot sign on behalf of
// users because it never learns their secret value x.
type KGC struct {
	params *Params
	master fr.Element
}

// Setup runs the McCLS Setup algorithm: draw a master key s ← Zr* and
// publish P_pub = s·P. Passing a nil reader uses crypto/rand.
func Setup(rng io.Reader) (*KGC, error) {
	s, err := fr.Random(rng)
	if err != nil {
		return nil, fmt.Errorf("mccls: setup: %w", err)
	}
	return newKGC(&s), nil
}

// NewKGCFromMaster reconstructs a KGC from a stored master key, e.g. after a
// restart. The master key must be in [1, r).
func NewKGCFromMaster(s *big.Int) (*KGC, error) {
	if s == nil || s.Sign() <= 0 || s.Cmp(bn254.Order) >= 0 {
		return nil, fmt.Errorf("%w: master key out of range", ErrInvalidKey)
	}
	return newKGC(new(fr.Element).SetBigInt(s)), nil
}

func newKGC(master *fr.Element) *KGC {
	params := &Params{Ppub: new(bn254.G1).ScalarBaseMultAddFr(master, nil)}
	params.Precompute()
	return &KGC{params: params, master: *master}
}

// Params returns the public system parameters.
func (k *KGC) Params() *Params { return k.params }

// MasterKey returns a copy of the master secret, for durable storage by the
// KGC operator. Handle with care.
func (k *KGC) MasterKey() *big.Int { return k.master.BigInt() }

// PartialPrivateKey is the KGC's contribution D_ID = s·Q_ID to a user's
// signing key. It is bound to the identity it was extracted for.
type PartialPrivateKey struct {
	ID string
	D  *bn254.G2
}

// ExtractPartialPrivateKey runs the Extract-Partial-Private-Key algorithm
// for the given identity.
func (k *KGC) ExtractPartialPrivateKey(id string) *PartialPrivateKey {
	return IssuePartialKey(k.params, id, &k.master)
}

// IssuePartialKey computes k·Q_ID — the Extract-Partial-Private-Key group
// operation with an explicit scalar. The single-master KGC calls it with
// the master secret; a threshold share-holder (internal/threshold) calls it
// with its Shamir share, in which case the result is a key *share*, not a
// valid partial key, until t of them are Lagrange-combined. It runs
// (k·c′)·Y_ID, Q_ID being c′·Y_ID (bn254.HashToG2Short).
func IssuePartialKey(params *Params, id string, k *fr.Element) *PartialPrivateKey {
	y, kc := bn254.HashToG2Short(domainH1, []byte(id)), bn254.HashToG2Scale()
	return &PartialPrivateKey{ID: id, D: y.ScalarMultFr(y, kc.Mul(&kc, k))}
}

// negInvScaleP is -c′⁻¹·P, Validate's G1 point beside D_ID.
var negInvScaleP = func() *bn254.G1 {
	c, p := bn254.HashToG2Scale(), bn254.G1Generator()
	c.Inverse(&c)
	return p.Neg(p.ScalarMultFr(p, &c))
}()

// Validate checks the partial key against the public parameters:
// e(P, D_ID) must equal e(P_pub, Q_ID). A user should run this on any
// partial key received over an untrusted channel before deriving a keypair.
// It decides e(-c′⁻¹·P, D_ID)·e(P_pub, Y_ID) = 1, that equation to the -c′⁻¹.
func (ppk *PartialPrivateKey) Validate(params *Params) error {
	if ppk.D == nil || ppk.D.IsInfinity() || !ppk.D.IsOnCurve() { // the loop checks G2
		return fmt.Errorf("%w: D_ID not a point of the twist", ErrPartialKeyInvalid)
	}
	y := bn254.HashToG2Short(domainH1, []byte(ppk.ID))
	if !bn254.PairingCheck([]*bn254.G1{negInvScaleP, params.Ppub}, []*bn254.G2{ppk.D, y}) {
		return ErrPartialKeyInvalid
	}
	return nil
}

// Marshal encodes the partial key as len(ID)‖ID‖D.
func (ppk *PartialPrivateKey) Marshal() []byte {
	out := make([]byte, 0, 8+len(ppk.ID)+128)
	return ppk.D.AppendMarshal(appendLengthPrefixed(out, []byte(ppk.ID)))
}

// UnmarshalPartialPrivateKey decodes a partial key whose point is on the
// curve; Validate, which every key derivation runs first, checks the rest.
func UnmarshalPartialPrivateKey(data []byte) (*PartialPrivateKey, error) {
	id, rest, err := readLengthPrefixed(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	var d bn254.G2
	if err := d.UnmarshalOnCurve(rest); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	return &PartialPrivateKey{ID: string(id), D: &d}, nil
}

func readLengthPrefixed(data []byte) (field, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("truncated length prefix")
	}
	n := uint64(0)
	for i := 0; i < 8; i++ {
		n = n<<8 | uint64(data[i])
	}
	if n > uint64(len(data)-8) {
		return nil, nil, fmt.Errorf("length prefix exceeds buffer")
	}
	return data[8 : 8+n], data[8+n:], nil
}
