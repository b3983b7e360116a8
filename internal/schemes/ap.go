package schemes

import (
	"fmt"
	"io"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// AP is the Al-Riyami–Paterson certificateless signature scheme
// (ASIACRYPT 2003), the first CLS scheme and the paper's oldest baseline.
// Table 1 profile: sign 1p+3s, verify 4p+1e, public key 2 points.
//
// Type-3 translation: identity hashes live in G2 (Q_A = H1(ID),
// D_A = s·Q_A, S_A = x·D_A) and the two-element public key
// ⟨X_A = x·P, Y_A = x·P_pub⟩ lives in G1. The KGC additionally publishes
// P_pub2 = s·G2 so verifiers can run the published key-consistency check
// e(X_A, P_pub2) = e(Y_A, G2), which is what makes the AP public key two
// points and its verification four pairings.
type AP struct{}

// Profile reports the Table 1 operation counts.
func (AP) Profile() Profile {
	return Profile{
		Name:              "AP",
		SignPairings:      1,
		SignScalarMults:   3,
		VerifyPairings:    4,
		VerifyScalarMults: 0,
		VerifyExps:        1,
		PublicKeyPoints:   2,
	}
}

const apDomainH1 = "ap/H1"
const apDomainH2 = "ap/H2"

type apSystem struct {
	master fr.Element
	ppub   *bn254.G1 // s·P
	ppub2  *bn254.G2 // s·G2, for the key-consistency check
}

// Setup draws the master key and publishes (P_pub, P_pub2).
func (AP) Setup(rng io.Reader) (System, error) {
	s, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	return &apSystem{
		master: s,
		ppub:   new(bn254.G1).ScalarBaseMultAddFr(&s, nil),
		ppub2:  new(bn254.G2).ScalarMultFr(bn254.G2Generator(), &s),
	}, nil
}

type apUser struct {
	id string
	sa *bn254.G2 // S_A = x·D_A
	xa *bn254.G1 // X_A = x·P
	ya *bn254.G1 // Y_A = x·P_pub
}

func (sys *apSystem) NewUser(id string, rng io.Reader) (User, error) {
	qa := bn254.HashToG2(apDomainH1, []byte(id))
	da := new(bn254.G2).ScalarMultFr(qa, &sys.master)
	x, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	return &apUser{
		id: id,
		sa: new(bn254.G2).ScalarMultFr(da, &x),
		xa: new(bn254.G1).ScalarBaseMultAddFr(&x, nil),
		ya: new(bn254.G1).ScalarMultFr(sys.ppub, &x),
	}, nil
}

func (u *apUser) ID() string { return u.id }

func (u *apUser) PublicKey() []byte {
	return append(u.xa.Marshal(), u.ya.Marshal()...)
}

// Sign: a ← Zr, rr = e(a·P, G2) (the scheme's one signing pairing),
// v = H2(M, rr), U = v·S_A + a·G2. Signature is (U, v).
func (u *apUser) Sign(msg []byte, rng io.Reader) ([]byte, error) {
	a, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	rr := bn254.Pair(new(bn254.G1).ScalarBaseMultAddFr(&a, nil), bn254.G2Generator())
	v := apHashV(msg, rr)
	uPt := new(bn254.G2).ScalarMultFr(u.sa, &v)
	uPt.Add(uPt, new(bn254.G2).ScalarMultFr(bn254.G2Generator(), &a))
	vb := v.Bytes()
	return append(uPt.Marshal(), vb[:]...), nil
}

func apHashV(msg []byte, rr *bn254.GT) fr.Element {
	buf := append([]byte{}, rr.Marshal()...)
	buf = append(buf, msg...)
	return bn254.HashToFr(apDomainH2, buf)
}

// Verify first checks key consistency e(X_A, P_pub2) = e(Y_A, G2), then
// recovers rr' = e(P, U)·e(Y_A, Q_A)^{-v} and accepts iff v = H2(M, rr').
func (sys *apSystem) Verify(id string, publicKey, msg, sig []byte) error {
	if len(publicKey) != 128 {
		return fmt.Errorf("%w: AP public key wants 128 bytes", ErrMalformed)
	}
	if len(sig) != 128+32 {
		return fmt.Errorf("%w: AP signature wants 160 bytes", ErrMalformed)
	}
	var xa, ya bn254.G1
	if err := xa.Unmarshal(publicKey[:64]); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if err := ya.Unmarshal(publicKey[64:]); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	var uPt bn254.G2
	if err := uPt.Unmarshal(sig[:128]); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	var v fr.Element
	if !v.SetBytesCanonical(sig[128:]) || v.IsZero() {
		return fmt.Errorf("%w: v out of range", ErrMalformed)
	}

	// Key consistency (pairings 1 and 2).
	negYA := new(bn254.G1).Neg(&ya)
	if !bn254.PairingCheck(
		[]*bn254.G1{&xa, negYA},
		[]*bn254.G2{sys.ppub2, bn254.G2Generator()},
	) {
		return fmt.Errorf("%w: public key components inconsistent", ErrVerifyFailed)
	}

	// rr' = e(P, U)·e(Y_A, Q_A)^{-v} (pairings 3 and 4, one GT exponent).
	qa := bn254.HashToG2(apDomainH1, []byte(id))
	rr := bn254.Pair(bn254.G1Generator(), &uPt)
	adj := new(bn254.GT).Exp(bn254.Pair(&ya, qa), new(fr.Element).Neg(&v))
	rr.Mul(rr, adj)
	if apHashV(msg, rr) != v {
		return ErrVerifyFailed
	}
	return nil
}
