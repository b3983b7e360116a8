package schemes

import (
	"fmt"
	"io"
	"sync"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// YHG is the Yap–Heng–Goi certificateless signature scheme (EUC 2006),
// reconstructed to its published operation profile. It was the most
// efficient baseline before McCLS. Table 1 profile: sign 2s, verify 2p+3s,
// public key 1 point.
//
// Keys: Q_ID = H1(ID) ∈ G2, D_ID = s·Q_ID, secret x, P_ID = x·P ∈ G1.
// Sign: r ← Zr, U = r·P, h = H2(M,ID,U,P_ID) ∈ Zr, T = H3(ID,P_ID) ∈ G2,
// V = D_ID + (r + h·x)·T. Signature (U, V).
// Verify: e(P, V) = e(P_pub, Q_ID)·e(U + h·P_ID, T). The first right-hand
// factor is message-independent, so — as in the published count — it is
// cached per identity and steady-state verification is two pairings.
type YHG struct{}

// Profile reports the Table 1 operation counts.
func (YHG) Profile() Profile {
	return Profile{
		Name:              "YHG",
		SignPairings:      0,
		SignScalarMults:   2,
		VerifyPairings:    2,
		VerifyScalarMults: 3,
		VerifyExps:        0,
		PublicKeyPoints:   1,
	}
}

const (
	yhgDomainH1 = "yhg/H1"
	yhgDomainH2 = "yhg/H2"
	yhgDomainH3 = "yhg/H3"
)

type yhgSystem struct {
	master fr.Element
	ppub   *bn254.G1

	mu    sync.Mutex
	cache map[string]*bn254.GT // e(P_pub, Q_ID) per identity
}

// Setup draws the master key and publishes P_pub = s·P.
func (YHG) Setup(rng io.Reader) (System, error) {
	s, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	return &yhgSystem{
		master: s,
		ppub:   new(bn254.G1).ScalarBaseMultAddFr(&s, nil),
		cache:  make(map[string]*bn254.GT),
	}, nil
}

type yhgUser struct {
	id  string
	d   *bn254.G2
	x   fr.Element
	pid *bn254.G1
	t   *bn254.G2 // T = H3(ID, P_ID), fixed per key
}

func (sys *yhgSystem) NewUser(id string, rng io.Reader) (User, error) {
	q := bn254.HashToG2(yhgDomainH1, []byte(id))
	x, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	pid := new(bn254.G1).ScalarBaseMultAddFr(&x, nil)
	return &yhgUser{
		id:  id,
		d:   new(bn254.G2).ScalarMultFr(q, &sys.master),
		x:   x,
		pid: pid,
		t:   yhgT(id, pid),
	}, nil
}

func yhgT(id string, pid *bn254.G1) *bn254.G2 {
	return bn254.HashToG2(yhgDomainH3, append([]byte(id), pid.Marshal()...))
}

func yhgH(msg []byte, id string, uPt, pid *bn254.G1) fr.Element {
	buf := append([]byte{}, msg...)
	buf = append(buf, 0)
	buf = append(buf, id...)
	buf = append(buf, uPt.Marshal()...)
	buf = append(buf, pid.Marshal()...)
	return bn254.HashToFr(yhgDomainH2, buf)
}

func (u *yhgUser) ID() string        { return u.id }
func (u *yhgUser) PublicKey() []byte { return u.pid.Marshal() }

// Sign produces (U, V) with two scalar multiplications (U = r·P and the
// single G2 multiplication by r + h·x) and no pairings.
func (u *yhgUser) Sign(msg []byte, rng io.Reader) ([]byte, error) {
	r, err := fr.Random(rng)
	if err != nil {
		return nil, err
	}
	uPt := new(bn254.G1).ScalarBaseMultAddFr(&r, nil)
	h := yhgH(msg, u.id, uPt, u.pid)
	var k fr.Element
	k.Mul(&h, &u.x)
	k.Add(&k, &r) // r + h·x
	v := new(bn254.G2).ScalarMultFr(u.t, &k)
	v.Add(v, u.d)
	return append(uPt.Marshal(), v.Marshal()...), nil
}

// Verify checks e(P, V) = e(P_pub, Q_ID)·e(U + h·P_ID, T) with the first
// factor cached per identity.
func (sys *yhgSystem) Verify(id string, publicKey, msg, sig []byte) error {
	if len(publicKey) != 64 {
		return fmt.Errorf("%w: YHG public key wants 64 bytes", ErrMalformed)
	}
	if len(sig) != 64+128 {
		return fmt.Errorf("%w: YHG signature wants 192 bytes", ErrMalformed)
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
	h := yhgH(msg, id, &uPt, &pid)
	t := yhgT(id, &pid)
	lhsArg := new(bn254.G1).ScalarMultFr(&pid, &h)
	lhsArg.Add(lhsArg, &uPt)

	sys.mu.Lock()
	base, ok := sys.cache[id]
	sys.mu.Unlock()
	if !ok {
		q := bn254.HashToG2(yhgDomainH1, []byte(id))
		base = bn254.Pair(sys.ppub, q)
		sys.mu.Lock()
		sys.cache[id] = base
		sys.mu.Unlock()
	}
	lhs := bn254.Pair(bn254.G1Generator(), &v)
	rhs := new(bn254.GT).Mul(base, bn254.Pair(lhsArg, t))
	if !lhs.Equal(rhs) {
		return ErrVerifyFailed
	}
	return nil
}
