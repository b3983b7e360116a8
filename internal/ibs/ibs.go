// Package ibs implements the Yoon–Cheon–Kim identity-based signature
// scheme with batch verification (ICISC 2004) — the scheme the paper says
// McCLS is "motivated by … being an adaptation of the former to the
// certificateless setting" (§4). Having the ancestor on the same BN254
// substrate makes the adaptation concrete: McCLS adds the user secret x
// (splitting the key between KGC and user, killing escrow) while keeping
// the batchable single-pairing verification structure.
//
// Type-3 translation, matching internal/core: identity material lives in
// G2, the ⟨P⟩ side in G1.
//
//	Setup:   s ← Zr*, P_pub = s·P
//	Extract: Q_ID = H1(ID) ∈ G2, D_ID = s·Q_ID  (the FULL private key —
//	         the escrow McCLS removes)
//	Sign:    r ← Zr*, U = r·Q_ID, h = H2(M, U), V = (r + h)·D_ID
//	Verify:  e(P, V) = e(P_pub, U + h·Q_ID)
//	Batch:   e(P, Σ Vᵢ) = e(P_pub, Σ(Uᵢ + hᵢ·Q_ID))  (same signer)
package ibs

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"mccls/internal/batch"
	"mccls/internal/bn254"
)

const (
	domainH1 = "yck/H1"
	domainH2 = "yck/H2"
)

// Errors returned by verification.
var (
	ErrVerifyFailed  = errors.New("ibs: signature verification failed")
	ErrBatchMismatch = errors.New("ibs: batch lengths do not match")
)

// Params are the public system parameters.
type Params struct {
	Ppub *bn254.G1
}

// PKG is the Private Key Generator — unlike a certificateless KGC it holds
// every user's complete signing key.
type PKG struct {
	params *Params
	master *big.Int
}

// Setup draws the master key. A nil reader uses crypto/rand.
func Setup(rng io.Reader) (*PKG, error) {
	s, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("ibs: setup: %w", err)
	}
	return &PKG{
		params: &Params{Ppub: new(bn254.G1).ScalarBaseMult(s)},
		master: s,
	}, nil
}

// Params returns the public parameters.
func (p *PKG) Params() *Params { return p.params }

// PrivateKey is a user's full ID-based signing key.
type PrivateKey struct {
	id string
	q  *bn254.G2 // Q_ID
	d  *bn254.G2 // D_ID = s·Q_ID
}

// Extract derives the complete private key for an identity. This is the
// key-escrow step: the PKG can impersonate any user, which is exactly the
// problem certificateless McCLS exists to remove.
func (p *PKG) Extract(id string) *PrivateKey {
	q := bn254.HashToG2(domainH1, []byte(id))
	return &PrivateKey{id: id, q: q, d: new(bn254.G2).ScalarMult(q, p.master)}
}

// ID returns the identity the key is bound to.
func (sk *PrivateKey) ID() string { return sk.id }

// Signature is a YCK signature (U, V) ∈ G2².
type Signature struct {
	U, V *bn254.G2
}

func hashH2(msg []byte, u *bn254.G2) *big.Int {
	return bn254.HashToScalar(domainH2, append(u.Marshal(), msg...))
}

// Sign produces a signature over msg. No pairings; two G2 scalar
// multiplications. A nil reader uses crypto/rand.
func Sign(sk *PrivateKey, msg []byte, rng io.Reader) (*Signature, error) {
	r, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("ibs: sign: %w", err)
	}
	u := new(bn254.G2).ScalarMult(sk.q, r)
	h := hashH2(msg, u)
	k := new(big.Int).Add(r, h)
	return &Signature{U: u, V: new(bn254.G2).ScalarMult(sk.d, k)}, nil
}

// Verify checks e(P, V) = e(P_pub, U + h·Q_ID) as one two-pairing product.
func Verify(params *Params, id string, msg []byte, sig *Signature) error {
	if sig == nil || sig.U == nil || sig.V == nil {
		return ErrVerifyFailed
	}
	q := bn254.HashToG2(domainH1, []byte(id))
	h := hashH2(msg, sig.U)
	rhs := new(bn254.G2).ScalarMult(q, h)
	rhs.Add(rhs, sig.U)
	negP := new(bn254.G1).Neg(bn254.G1Generator())
	if !bn254.PairingCheck(
		[]*bn254.G1{negP, params.Ppub},
		[]*bn254.G2{sig.V, rhs},
	) {
		return ErrVerifyFailed
	}
	return nil
}

// BatchVerify checks n same-signer signatures with the scheme's signature
// aggregation: two pairings per chunk regardless of chunk width (one chunk
// for batches up to the engine's default width). It routes through the
// shared internal/batch engine, so a rejected batch bisects down to the
// offending signatures and reports them via *batch.Error rather than
// forcing the caller to re-verify one by one.
func BatchVerify(params *Params, id string, msgs [][]byte, sigs []*Signature) error {
	if len(msgs) != len(sigs) {
		return ErrBatchMismatch
	}
	n := len(sigs)
	if n == 0 {
		return nil
	}
	for _, sig := range sigs {
		if sig == nil || sig.U == nil || sig.V == nil {
			return ErrVerifyFailed
		}
	}
	q := bn254.HashToG2(domainH1, []byte(id))
	hs := make([]*big.Int, n)
	for i := range hs {
		hs[i] = hashH2(msgs[i], sigs[i].U)
	}
	negP := new(bn254.G1).Neg(bn254.G1Generator())
	check := func(idxs []int) bool {
		vSum := bn254.G2Infinity()
		rhs := bn254.G2Infinity()
		hSum := new(big.Int)
		for _, i := range idxs {
			vSum.Add(vSum, sigs[i].V)
			rhs.Add(rhs, sigs[i].U)
			hSum.Add(hSum, hs[i])
		}
		rhs.Add(rhs, new(bn254.G2).ScalarMult(q, hSum))
		return bn254.PairingCheck(
			[]*bn254.G1{negP, params.Ppub},
			[]*bn254.G2{vSum, rhs},
		)
	}
	bad, err := batch.Reject(n, batch.Options{}, check, nil)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return &batch.Error{Bad: bad, Cause: ErrVerifyFailed}
	}
	return nil
}
