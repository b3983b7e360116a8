package schemes

import (
	"fmt"
	"io"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// ZWXF is the Zhang–Wong–Xu–Feng certificateless signature scheme
// (ACNS 2006), reconstructed to its published operation profile.
// Table 1 profile: sign 4s, verify 4p+3s, public key 1 point.
//
// Keys: Q_ID = H1(ID) ∈ G2, D_ID = s·Q_ID, secret x, P_ID = x·P ∈ G1.
// Sign: r ← Zr, U = r·P, W = H2(M,ID,U,P_ID) ∈ G2, W' = H3(M,ID,U,P_ID) ∈ G2,
// V = D_ID + r·W + x·W'. Signature (U, V).
// Verify: e(P, V) = e(P_pub, Q_ID)·e(U, W)·e(P_ID, W') — four pairings, none
// cacheable because W and W' depend on the message.
type ZWXF struct{}

// Profile reports the Table 1 operation counts.
func (ZWXF) Profile() Profile {
	return Profile{
		Name:              "ZWXF",
		SignPairings:      0,
		SignScalarMults:   4,
		VerifyPairings:    4,
		VerifyScalarMults: 3,
		VerifyExps:        0,
		PublicKeyPoints:   1,
	}
}

const (
	zwxfDomainH1 = "zwxf/H1"
	zwxfDomainH2 = "zwxf/H2"
	zwxfDomainH3 = "zwxf/H3"
)

type zwxfSystem struct {
	master fr.Element
	ppub   *bn254.G1
}

// Setup draws the master key and publishes P_pub = s·P.
func (ZWXF) Setup(rng io.Reader) (System, error) {
	s, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	return &zwxfSystem{master: s, ppub: new(bn254.G1).ScalarBaseMultAddFr(&s, nil)}, nil
}

type zwxfUser struct {
	id  string
	d   *bn254.G2 // D_ID = s·Q_ID
	x   fr.Element
	pid *bn254.G1 // P_ID = x·P
}

func (sys *zwxfSystem) NewUser(id string, rng io.Reader) (User, error) {
	q := bn254.HashToG2(zwxfDomainH1, []byte(id))
	x, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	return &zwxfUser{
		id:  id,
		d:   new(bn254.G2).ScalarMultFr(q, &sys.master),
		x:   x,
		pid: new(bn254.G1).ScalarBaseMultAddFr(&x, nil),
	}, nil
}

func (u *zwxfUser) ID() string        { return u.id }
func (u *zwxfUser) PublicKey() []byte { return u.pid.Marshal() }

// zwxfBind serialises the tuple (M, ID, U, P_ID) hashed by H2 and H3.
func zwxfBind(msg []byte, id string, uPt, pid *bn254.G1) []byte {
	buf := append([]byte{}, msg...)
	buf = append(buf, 0)
	buf = append(buf, id...)
	buf = append(buf, uPt.Marshal()...)
	return append(buf, pid.Marshal()...)
}

// Sign produces (U, V) with four scalar multiplications and no pairings.
func (u *zwxfUser) Sign(msg []byte, rng io.Reader) ([]byte, error) {
	r, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	uPt := new(bn254.G1).ScalarBaseMultAddFr(&r, nil)
	bind := zwxfBind(msg, u.id, uPt, u.pid)
	w := bn254.HashToG2(zwxfDomainH2, bind)
	wp := bn254.HashToG2(zwxfDomainH3, bind)
	v := new(bn254.G2).ScalarMultFr(w, &r)
	v.Add(v, new(bn254.G2).ScalarMultFr(wp, &u.x))
	v.Add(v, u.d)
	return append(uPt.Marshal(), v.Marshal()...), nil
}

// Verify checks e(P, V) = e(P_pub, Q_ID)·e(U, W)·e(P_ID, W') as a single
// four-pairing product.
func (sys *zwxfSystem) Verify(id string, publicKey, msg, sig []byte) error {
	if len(publicKey) != 64 {
		return fmt.Errorf("%w: ZWXF public key wants 64 bytes", ErrMalformed)
	}
	if len(sig) != 64+128 {
		return fmt.Errorf("%w: ZWXF signature wants 192 bytes", ErrMalformed)
	}
	var pid, uPt bn254.G1
	if err := pid.Unmarshal(publicKey); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if err := uPt.Unmarshal(sig[:64]); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	var v bn254.G2
	if err := v.Unmarshal(sig[64:]); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	q := bn254.HashToG2(zwxfDomainH1, []byte(id))
	bind := zwxfBind(msg, id, &uPt, &pid)
	w := bn254.HashToG2(zwxfDomainH2, bind)
	wp := bn254.HashToG2(zwxfDomainH3, bind)
	negP := new(bn254.G1).Neg(bn254.G1Generator())
	if !bn254.PairingCheck(
		[]*bn254.G1{negP, sys.ppub, &uPt, &pid},
		[]*bn254.G2{&v, q, w, wp},
	) {
		return ErrVerifyFailed
	}
	return nil
}
