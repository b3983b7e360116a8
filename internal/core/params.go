// Package core implements McCLS, the certificateless signature scheme of
// Xu, Liu, Zhang, He, Dai and Shu (ICDCS 2008 Workshops): "A Certificateless
// Signature Scheme for Mobile Wireless Cyber-Physical Systems".
//
// The scheme splits key material between a Key Generation Center (KGC),
// which issues a partial private key D_ID = s·H1(ID), and the user, who
// contributes a secret value x. Neither party alone can sign: the KGC never
// learns x (no key escrow), and the user never learns the master key s
// (no self-certification). There are no certificates: a verifier needs only
// the system parameters, the claimed identity and the claimed public key.
//
// Signing requires zero pairing operations; verification requires a single
// pairing beyond the per-identity constant e(P_pub, Q_ID), which Verifier
// caches as a Miller value — the property the paper leans on for CPS timing.
//
// The paper's symmetric pairing is translated to the Type-3 setting (see
// DESIGN.md §1): ⟨P⟩-side values (P, P_pub, R, P_ID) live in G1 and
// identity-derived values (Q_ID, D_ID, S) live in G2.
package core

import (
	"errors"
	"fmt"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// Domain-separation tags for the two random oracles.
const (
	domainH1 = "mccls/v1/H1" // identities → G2
	domainH2 = "mccls/v1/H2" // (message, R, P_ID) → Zr*
)

// Errors returned by verification and decoding. ErrVerifyFailed is the
// only rejection a protocol should branch on; the rest aid debugging.
var (
	ErrVerifyFailed      = errors.New("mccls: signature verification failed")
	ErrInvalidSignature  = errors.New("mccls: malformed signature")
	ErrInvalidKey        = errors.New("mccls: malformed key material")
	ErrPartialKeyInvalid = errors.New("mccls: partial private key does not match identity")
	ErrBatchMismatch     = errors.New("mccls: batch lengths do not match")
)

// Params are the public system parameters (P, P_pub, H1, H2) published by
// the KGC at Setup. P is the fixed G1 generator; the hash functions are
// fixed domain-separated oracles, so only P_pub varies between systems.
type Params struct {
	// Ppub is the KGC master public key s·P.
	Ppub *bn254.G1

	// h2Override, when non-nil, replaces the H2 oracle. It exists for
	// tests only: regression tests use it to drive pathological hash
	// values — h ≡ 0 mod r, which has no inverse — through the
	// verification paths without finding a SHA-256 preimage.
	h2Override func(msg []byte, r, pid *bn254.G1) fr.Element
}

// Precompute builds the fixed-base table for the system generator so the
// first Sign/Verify call does not pay the one-time table cost. Setup and
// UnmarshalParams call it; it is idempotent and safe concurrently.
func (*Params) Precompute() { bn254.PrecomputeFixedBase() }

// hashH2 computes h = H2(M, R, P_ID) ∈ Zr*, length-prefixing each component
// so distinct tuples cannot collide.
func (p *Params) hashH2(msg []byte, r *bn254.G1, pid *bn254.G1) fr.Element {
	if p.h2Override != nil {
		return p.h2Override(msg, r, pid)
	}
	var stack [8 + 64 + 2*64]byte // routing-sized messages stay off the heap
	buf := appendLengthPrefixed(stack[:0], msg)
	return bn254.HashToFr(domainH2, pid.AppendMarshal(r.AppendMarshal(buf)))
}

func appendLengthPrefixed(dst, b []byte) []byte {
	n := len(b)
	dst = append(dst, byte(n>>56), byte(n>>48), byte(n>>40), byte(n>>32),
		byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(dst, b...)
}

// paramsMarshalledSize is the byte length of marshalled Params.
const paramsMarshalledSize = 64

// Marshal encodes the parameters (currently just P_pub).
func (p *Params) Marshal() []byte { return p.Ppub.Marshal() }

// UnmarshalParams decodes parameters produced by Marshal, validating the
// embedded point.
func UnmarshalParams(data []byte) (*Params, error) {
	if len(data) != paramsMarshalledSize {
		return nil, fmt.Errorf("%w: params want %d bytes, got %d", ErrInvalidKey, paramsMarshalledSize, len(data))
	}
	var ppub bn254.G1
	if err := ppub.Unmarshal(data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKey, err)
	}
	if ppub.IsInfinity() {
		return nil, fmt.Errorf("%w: P_pub is the identity", ErrInvalidKey)
	}
	p := &Params{Ppub: &ppub}
	p.Precompute()
	return p, nil
}
