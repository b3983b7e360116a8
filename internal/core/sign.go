package core

import (
	"fmt"
	"io"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// Signature is a McCLS signature σ = (V, S, R): a scalar V = h·r, the
// key-derived group element S = x⁻¹·D_ID ∈ G2, and the commitment
// R = (r - x)·P ∈ G1.
type Signature struct {
	V fr.Element
	S *bn254.G2
	R *bn254.G1
}

// SignatureSize is the byte length of a marshalled signature:
// 32 (V) + 128 (S) + 64 (R).
const SignatureSize = 32 + 128 + 64

// Sign runs CL-Sign: draw r ← Zr*, output (V, S, R) with R = (r-x)·P,
// h = H2(M, R, P_ID), V = h·r. No pairing operations are performed; the
// per-message cost is a single G1 scalar multiplication (S is precomputed
// at key generation). Passing a nil reader uses crypto/rand.
func Sign(params *Params, sk *PrivateKey, msg []byte, rng io.Reader) (*Signature, error) {
	// R = (r - x)·P. If r == x, R would be the identity and leak x; redraw
	// until r ≠ x (a 2⁻²⁵⁴ event per draw, so the loop terminates on the
	// first iteration for any real RNG).
	var r, k fr.Element
	for {
		var err error
		if r, err = fr.Random(rng); err != nil {
			return nil, fmt.Errorf("mccls: sign: %w", err)
		}
		if k.Sub(&r, &sk.x); !k.IsZero() {
			break
		}
	}
	sig := &Signature{S: new(bn254.G2).Set(sk.s), R: new(bn254.G1).ScalarBaseMultAddFr(&k, nil)}
	h := params.hashH2(msg, sig.R, sk.pub.PID)
	sig.V.Mul(&h, &r)
	return sig, nil
}

// Marshal encodes the signature as V‖S‖R.
func (sig *Signature) Marshal() []byte {
	out := make([]byte, 0, SignatureSize)
	v := sig.V.Bytes()
	out = append(out, v[:]...)
	return sig.R.AppendMarshal(sig.S.AppendMarshal(out))
}

// UnmarshalSignature decodes and validates a signature: V must be a scalar
// in [1, r), S a non-identity point of the twist, R a point of G1. S's
// subgroup membership is Verify's to check, where a pairing consumes S.
func UnmarshalSignature(data []byte) (*Signature, error) {
	if len(data) != SignatureSize {
		return nil, fmt.Errorf("%w: want %d bytes, got %d", ErrInvalidSignature, SignatureSize, len(data))
	}
	var v fr.Element
	if !v.SetBytesCanonical(data[:32]) || v.IsZero() {
		return nil, fmt.Errorf("%w: V out of range", ErrInvalidSignature)
	}
	var s bn254.G2
	if err := s.UnmarshalOnCurve(data[32 : 32+128]); err != nil {
		return nil, fmt.Errorf("%w: S: %v", ErrInvalidSignature, err)
	}
	if s.IsInfinity() {
		return nil, fmt.Errorf("%w: S is the identity", ErrInvalidSignature)
	}
	var r bn254.G1
	if err := r.Unmarshal(data[32+128:]); err != nil {
		return nil, fmt.Errorf("%w: R: %v", ErrInvalidSignature, err)
	}
	return &Signature{V: v, S: &s, R: &r}, nil
}
