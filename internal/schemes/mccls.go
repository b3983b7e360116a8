package schemes

import (
	"fmt"
	"io"

	"mccls/internal/core"
)

// McCLS adapts the paper's scheme (implemented in internal/core) to the
// common Scheme interface so it can be benchmarked against the baselines.
// Table 1 profile: sign 2s (one of which, S = x⁻¹·D_ID, is precomputed at
// key generation), verify 1p+1s with e(P_pub, Q_ID) cached per identity,
// public key 1 point.
type McCLS struct{}

// Profile reports the Table 1 operation counts.
func (McCLS) Profile() Profile {
	return Profile{
		Name:              "McCLS",
		SignPairings:      0,
		SignScalarMults:   2,
		VerifyPairings:    1,
		VerifyScalarMults: 1,
		VerifyExps:        0,
		PublicKeyPoints:   1,
	}
}

type mcclsSystem struct {
	kgc *core.KGC
	vf  *core.Verifier
}

// Setup runs the McCLS Setup algorithm.
func (McCLS) Setup(rng io.Reader) (System, error) {
	kgc, err := core.Setup(rng)
	if err != nil {
		return nil, err
	}
	return &mcclsSystem{kgc: kgc, vf: core.NewVerifier(kgc.Params())}, nil
}

type mcclsUser struct {
	params *core.Params
	sk     *core.PrivateKey
}

func (sys *mcclsSystem) NewUser(id string, rng io.Reader) (User, error) {
	sk, err := core.GenerateKeyPair(sys.kgc.Params(), sys.kgc.ExtractPartialPrivateKey(id), rng)
	if err != nil {
		return nil, err
	}
	return &mcclsUser{params: sys.kgc.Params(), sk: sk}, nil
}

func (u *mcclsUser) ID() string { return u.sk.ID() }

// PublicKey returns just the P_ID point (the identity travels separately in
// this interface), matching the 1-point Table 1 entry.
func (u *mcclsUser) PublicKey() []byte { return u.sk.Public().PID.Marshal() }

func (u *mcclsUser) Sign(msg []byte, rng io.Reader) ([]byte, error) {
	sig, err := core.Sign(u.params, u.sk, msg, rng)
	if err != nil {
		return nil, err
	}
	return sig.Marshal(), nil
}

func (sys *mcclsSystem) Verify(id string, publicKey, msg, sig []byte) error {
	pk, err := core.NewPublicKey(id, publicKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	s, err := core.UnmarshalSignature(sig)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if err := sys.vf.Verify(pk, msg, s); err != nil {
		return fmt.Errorf("%w: %v", ErrVerifyFailed, err)
	}
	return nil
}
