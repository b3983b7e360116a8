// Package mccls is the public API of the McCLS certificateless signature
// scheme (Xu, Liu, Zhang, He, Dai, Shu — "A Certificateless Signature
// Scheme for Mobile Wireless Cyber-Physical Systems", ICDCS 2008
// Workshops), implemented from scratch over a BN254 pairing built on the
// Go standard library.
//
// A certificateless signature system has three roles:
//
//   - The Key Generation Center runs Setup once, publishes Params and
//     issues each identity a partial private key D_ID = s·H1(ID).
//   - A user combines its partial key with a self-chosen secret value x
//     into a PrivateKey (GenerateKeyPair); its PublicKey P_ID = x·P_pub
//     needs no certificate.
//   - Anyone holding Params verifies signatures against (identity,
//     public key) directly; the per-identity pairing constant
//     e(P_pub, Q_ID) is cached inside Verifier, so steady-state
//     verification costs one pairing, and signing costs no pairings at
//     all.
//
// Basic usage:
//
//	kgc, _ := mccls.Setup(nil)
//	ppk := kgc.ExtractPartialPrivateKey("alice@example")
//	sk, _ := mccls.GenerateKeyPair(kgc.Params(), ppk, nil)
//	sig, _ := mccls.Sign(kgc.Params(), sk, []byte("msg"), nil)
//	vf := mccls.NewVerifier(kgc.Params())
//	err := vf.Verify(sk.Public(), []byte("msg"), sig)
//
// The sibling package mccls/manet exposes the paper's MANET evaluation
// (AODV with McCLS routing authentication under black hole and rushing
// attacks).
package mccls

import (
	"io"
	"math/big"

	"mccls/internal/core"
)

// Core types, aliased from the implementation so the full method sets are
// part of the public API.
type (
	// KGC is the Key Generation Center holding the master secret.
	KGC = core.KGC
	// Params are the public system parameters (P, P_pub, H1, H2).
	Params = core.Params
	// PartialPrivateKey is the KGC's contribution D_ID to a user key.
	PartialPrivateKey = core.PartialPrivateKey
	// PrivateKey is a user's full signing key (secret value + partial key).
	PrivateKey = core.PrivateKey
	// PublicKey is the certificate-free public key P_ID bound to an identity.
	PublicKey = core.PublicKey
	// Signature is a McCLS signature (V, S, R).
	Signature = core.Signature
	// Verifier checks signatures, caching per-identity pairing constants.
	Verifier = core.Verifier
	// BatchVerifier checks windows of signatures, each index by the (S, A)
	// Verify accepted for its signer or by Verify; obtain one from
	// Verifier.Batch.
	BatchVerifier = core.BatchVerifier
	// BatchOptions configure Verifier.Batch; it has no fields.
	BatchOptions = core.BatchOptions
)

// Sentinel errors; match with errors.Is.
var (
	ErrVerifyFailed      = core.ErrVerifyFailed
	ErrInvalidSignature  = core.ErrInvalidSignature
	ErrInvalidKey        = core.ErrInvalidKey
	ErrPartialKeyInvalid = core.ErrPartialKeyInvalid
	ErrBatchMismatch     = core.ErrBatchMismatch
)

// SignatureSize is the byte length of a marshalled signature.
const SignatureSize = core.SignatureSize

// Setup creates a KGC with a fresh master key. A nil reader uses
// crypto/rand.
func Setup(rng io.Reader) (*KGC, error) { return core.Setup(rng) }

// NewKGCFromMaster rebuilds a KGC from a stored master key.
func NewKGCFromMaster(s *big.Int) (*KGC, error) { return core.NewKGCFromMaster(s) }

// GenerateKeyPair completes a certificateless keypair from a partial
// private key, drawing the secret value from rng (nil uses crypto/rand).
func GenerateKeyPair(params *Params, ppk *PartialPrivateKey, rng io.Reader) (*PrivateKey, error) {
	return core.GenerateKeyPair(params, ppk, rng)
}

// NewPrivateKeyFromSecret rebuilds a private key from a stored secret value.
func NewPrivateKeyFromSecret(params *Params, ppk *PartialPrivateKey, x *big.Int) (*PrivateKey, error) {
	return core.NewPrivateKeyFromSecret(params, ppk, x)
}

// Sign produces a signature over msg. Signing performs no pairing
// operations. A nil reader uses crypto/rand.
func Sign(params *Params, sk *PrivateKey, msg []byte, rng io.Reader) (*Signature, error) {
	return core.Sign(params, sk, msg, rng)
}

// NewVerifier creates a verifier for the given system parameters.
func NewVerifier(params *Params) *Verifier { return core.NewVerifier(params) }

// BatchOffenders extracts the offending signature indices from a
// BatchVerifier rejection (nil for nil or structural errors).
func BatchOffenders(err error) []int { return core.BatchOffenders(err) }

// Decoding helpers for material received over the wire; all check that a
// point is canonical and on its curve. A G2 point is checked in its subgroup
// where it is used: S by Verifier.Verify, D by PartialPrivateKey.Validate.
var (
	UnmarshalParams            = core.UnmarshalParams
	UnmarshalPublicKey         = core.UnmarshalPublicKey
	UnmarshalSignature         = core.UnmarshalSignature
	UnmarshalPartialPrivateKey = core.UnmarshalPartialPrivateKey
)
