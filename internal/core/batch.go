package core

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"mccls/internal/batch"
	"mccls/internal/bn254"
)

// BatchOptions configure a BatchVerifier.
type BatchOptions struct {
	// Workers bounds the chunk worker pool (default GOMAXPROCS).
	Workers int
	// ChunkSize is the number of signatures per aggregate check
	// (default batch.DefaultChunkSize).
	ChunkSize int
	// Weights seeds the per-signature random weights (nil uses
	// crypto/rand). The weights must be unpredictable to signers; fix the
	// source only in tests.
	Weights io.Reader
}

// BatchVerifier is the batch-verification engine for McCLS, obtained from
// Verifier.Batch, the tree's one batch entry point. It layers the
// generic chunk/parallel/bisect machinery of internal/batch over the two
// McCLS aggregate equations:
//
//	same signer:  e(Σᵢ ρᵢ·Aᵢ, S) = e(P_pub, Q_ID)^Σρᵢ
//	multi signer: Π e(ρᵢ·Aᵢ, Sᵢ) · e(-P_pub, Σ_ID (Σᵢ∈ID ρᵢ)·Q_ID) = 1
//
// with Aᵢ = (Vᵢ·hᵢ⁻¹)·P - Rᵢ and ρᵢ independent 128-bit weights (cheat
// probability 2⁻¹²⁸). Each chunk of the multi-signer equation is one
// lockstep multi-pairing — one shared Fp12 squaring per Miller iteration
// and one shared final exponentiation for the whole chunk — and signatures
// by the same identity share a single weighted Q_ID term. The accept/reject
// outcome and the reported offender set are bit-identical at any worker
// count (weights are derived per-index from one seed, chunk boundaries
// depend only on ChunkSize, and chunks are decided independently).
type BatchVerifier struct {
	vf   *Verifier
	opts BatchOptions
}

// Batch creates a batch-verification engine over this verifier's
// parameters and caches.
func (vf *Verifier) Batch(opts BatchOptions) *BatchVerifier {
	return &BatchVerifier{vf: vf, opts: opts}
}

// BatchOffenders extracts the offending signature indices from a batch
// rejection. It returns nil when err carries no offender list (nil errors,
// structural errors like length mismatches or malformed signatures).
func BatchOffenders(err error) []int {
	var be *batch.Error
	if errors.As(err, &be) {
		return be.Bad
	}
	return nil
}

// Verify checks a single signature (the bisection leaf path; identical to
// Verifier.Verify).
func (bv *BatchVerifier) Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	return bv.vf.Verify(pk, msg, sig)
}

// prepared holds the per-signature precomputation shared by both aggregate
// equations.
type prepared struct {
	// wa is the weighted commitment ρᵢ·Aᵢ = (ρᵢ·Vᵢ·hᵢ⁻¹ mod r)·P - ρᵢ·Rᵢ,
	// built with one fixed-base table pass plus one short-scalar mult.
	wa *bn254.G1
	// rho is the 128-bit weight ρᵢ.
	rho *big.Int
}

// prepare runs the shape checks and weighted-commitment precomputation for
// index i. Shape and zero-hash failures surface as errors, matching the
// single-signature paths.
func (bv *BatchVerifier) prepare(pk *PublicKey, msg []byte, sig *Signature, rho *big.Int) (prepared, error) {
	if err := checkShape(pk, sig); err != nil {
		return prepared{}, err
	}
	h := bv.vf.params.hashH2(msg, sig.R, pk.PID)
	hInv, err := invertH2(h)
	if err != nil {
		return prepared{}, err
	}
	k := new(big.Int).Mul(sig.V, hInv)
	k.Mul(k.Mod(k, bn254.Order), rho)
	wa := new(bn254.G1).ScalarBaseMultAdd(k,
		new(bn254.G1).Neg(new(bn254.G1).ScalarMult(sig.R, rho)))
	return prepared{wa: wa, rho: rho}, nil
}

// weights draws the batch's weight seed from the configured source.
func (bv *BatchVerifier) weights() (*batch.Weights, error) {
	w, err := batch.NewWeights(bv.opts.Weights)
	if err != nil {
		return nil, fmt.Errorf("mccls: %w", err)
	}
	return w, nil
}

// verifyOne is the one-element fast path: the cached-constant Verify with
// no weighting overhead, with rejections reported in batch form.
func (bv *BatchVerifier) verifyOne(pk *PublicKey, msg []byte, sig *Signature) error {
	err := bv.vf.Verify(pk, msg, sig)
	if errors.Is(err, ErrVerifyFailed) {
		return &batch.Error{Bad: []int{0}, Cause: ErrVerifyFailed}
	}
	return err
}

// reject runs the generic engine and wraps offenders in a *batch.Error
// carrying ErrVerifyFailed.
func (bv *BatchVerifier) reject(n int, check batch.Check, checkOne batch.CheckOne) error {
	bad, err := batch.Reject(n, batch.Options{
		Workers:   bv.opts.Workers,
		ChunkSize: bv.opts.ChunkSize,
	}, check, checkOne)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return &batch.Error{Bad: bad, Cause: ErrVerifyFailed}
	}
	return nil
}

// VerifySameSigner checks n signatures by one signer. All signatures must
// share the same S component (they do when produced by the same private
// key; S is message-independent), which collapses each chunk to a single
// pairing against e(P_pub, Q_ID)^Σρ. Rejections return a *batch.Error
// listing the offending indices; structural problems (length mismatch,
// foreign S, malformed signatures) are reported directly.
func (bv *BatchVerifier) VerifySameSigner(pk *PublicKey, msgs [][]byte, sigs []*Signature) error {
	if len(msgs) != len(sigs) {
		return ErrBatchMismatch
	}
	n := len(sigs)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return bv.verifyOne(pk, msgs[0], sigs[0])
	}
	w, err := bv.weights()
	if err != nil {
		return err
	}
	s0 := sigs[0].S
	prep := make([]prepared, n)
	for i, sig := range sigs {
		if prep[i], err = bv.prepare(pk, msgs[i], sig, w.At(i)); err != nil {
			return err
		}
		if !sig.S.Equal(s0) {
			return fmt.Errorf("%w: batch requires a common S component", ErrBatchMismatch)
		}
	}
	rhs := bv.vf.rhs(pk.ID)
	check := func(idxs []int) bool {
		acc := bn254.G1Infinity()
		sum := new(big.Int)
		for _, i := range idxs {
			acc.Add(acc, prep[i].wa)
			sum.Add(sum, prep[i].rho)
		}
		want := new(bn254.GT).Exp(rhs, sum.Mod(sum, bn254.Order))
		return bn254.Pair(acc, s0).Equal(want)
	}
	checkOne := func(i int) bool { return bv.vf.Verify(pk, msgs[i], sigs[i]) == nil }
	return bv.reject(n, check, checkOne)
}

// VerifyMulti checks n signatures from arbitrary (possibly distinct)
// signers. Each chunk is verified with one lockstep multi-pairing:
//
//	Π_{i∈chunk} e(ρᵢ·Aᵢ, Sᵢ) · e(-P_pub, Σ_ID (Σᵢ∈ID ρᵢ)·Q_ID) = 1
//
// Signatures by the same identity are grouped on the G2 side, so a chunk
// with k distinct signers pays k weighted Q_ID scalar multiplications
// rather than one per signature, and cached Q_ID hashes avoid re-running
// hash-to-G2. Rejections return a *batch.Error listing the offending
// indices; structural problems are reported directly.
func (bv *BatchVerifier) VerifyMulti(pks []*PublicKey, msgs [][]byte, sigs []*Signature) error {
	if len(pks) != len(msgs) || len(msgs) != len(sigs) {
		return ErrBatchMismatch
	}
	n := len(sigs)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return bv.verifyOne(pks[0], msgs[0], sigs[0])
	}
	w, err := bv.weights()
	if err != nil {
		return err
	}
	prep := make([]prepared, n)
	for i, sig := range sigs {
		if prep[i], err = bv.prepare(pks[i], msgs[i], sig, w.At(i)); err != nil {
			return err
		}
	}
	negPpub := new(bn254.G1).Neg(bv.vf.params.Ppub)
	check := func(idxs []int) bool {
		ps := make([]*bn254.G1, 0, len(idxs)+1)
		qs := make([]*bn254.G2, 0, len(idxs)+1)
		rhoByID := make(map[string]*big.Int)
		order := make([]string, 0, 4) // deterministic identity order
		for _, i := range idxs {
			ps = append(ps, prep[i].wa)
			qs = append(qs, sigs[i].S)
			id := pks[i].ID
			if sum, ok := rhoByID[id]; ok {
				sum.Add(sum, prep[i].rho)
			} else {
				rhoByID[id] = new(big.Int).Set(prep[i].rho)
				order = append(order, id)
			}
		}
		qSum := bn254.G2Infinity()
		for _, id := range order {
			sum := rhoByID[id].Mod(rhoByID[id], bn254.Order)
			qSum.Add(qSum, new(bn254.G2).ScalarMult(bv.vf.qid(id), sum))
		}
		ps = append(ps, negPpub)
		qs = append(qs, qSum)
		return bn254.PairingCheck(ps, qs)
	}
	checkOne := func(i int) bool { return bv.vf.Verify(pks[i], msgs[i], sigs[i]) == nil }
	return bv.reject(n, check, checkOne)
}
