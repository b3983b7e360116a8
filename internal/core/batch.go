package core

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
	"mccls/internal/runner"
)

// chunkWidth is the number of signatures per aggregate check. One chunk is
// one shared final exponentiation, so wider chunks amortize better;
// narrower chunks parallelize and bisect better. 64 is the window the
// benchmark's batch_flood workload prices as batch.us_per_sig.
const chunkWidth = 64

// weightBits is the weight length. 128 bits keeps the cheat probability at
// 2^-128 while halving the scalar-multiplication cost of full-width
// weights.
const weightBits = 128

// BatchOptions configure a BatchVerifier.
type BatchOptions struct {
	// Weights seeds the per-signature random weights (nil uses
	// crypto/rand). The weights must be unpredictable to signers; fix the
	// source only in tests.
	Weights io.Reader
}

// BatchVerifier is the batch-verification engine for McCLS, obtained from
// Verifier.Batch, the tree's one batch entry point. A window of n
// signatures is cut into chunks of chunkWidth, every chunk is decided by
// one aggregate equation on a worker pool, and a failing chunk is bisected
// until the offending signatures are isolated. The equation is
//
//	Π_S e(Σᵢ∈S ρᵢ·Aᵢ, S) · e(-P_pub, Σ_ID (Σᵢ∈ID ρᵢ)·Q_ID) = 1
//
// with Aᵢ = (Vᵢ·hᵢ⁻¹)·P - Rᵢ and ρᵢ independent 128-bit weights (cheat
// probability 2⁻¹²⁸). Both per-signer constants of a McCLS check are
// folded: signatures carrying the same S value share one G1 sum (S is
// message-independent, so a signer contributes one pair however many
// signatures it has in the chunk), and signatures under the same identity
// share one weighted Q_ID term. A chunk from k signers is therefore one
// lockstep multi-pairing of k+1 pairs — one shared Fp12 squaring per
// Miller iteration and one shared final exponentiation — and a one-signer
// window is its two-pair case. Grouping is on S point equality, never on
// identity, so a forged S under a known identity forms a group of its own.
// The accept/reject outcome and the reported offender set are bit-identical
// at any worker count (weights are derived per-index from one seed, chunk
// boundaries depend only on the chunk width, and chunks are decided
// independently).
type BatchVerifier struct {
	vf      *Verifier
	weights io.Reader
	// chunk and workers are chunkWidth and 0 (GOMAXPROCS) outside this
	// package's tests.
	chunk, workers int
}

// Batch creates a batch-verification engine over this verifier's
// parameters and caches.
func (vf *Verifier) Batch(opts BatchOptions) *BatchVerifier {
	return &BatchVerifier{vf: vf, weights: opts.Weights, chunk: chunkWidth}
}

// batchError reports a rejected batch: the sorted indices that failed. It
// unwraps to ErrVerifyFailed so errors.Is checks keep working.
type batchError struct {
	bad []int
}

func (e *batchError) Error() string {
	return fmt.Sprintf("mccls: batch: %d signature(s) rejected (indices %v): %v", len(e.bad), e.bad, ErrVerifyFailed)
}

func (e *batchError) Unwrap() error { return ErrVerifyFailed }

// BatchOffenders extracts the offending signature indices from a batch
// rejection. It returns nil when err carries no offender list (nil errors,
// structural errors like length mismatches or malformed signatures).
func BatchOffenders(err error) []int {
	var be *batchError
	if errors.As(err, &be) {
		return be.bad
	}
	return nil
}

// weightSeed derives the per-index random exponents of the small-exponent
// batch test. Every weight is a uniformly random nonzero scalar of at most
// weightBits bits, derived deterministically from (seed, index) — so the
// same seed yields the same accept/reject decision regardless of how the
// engine chunks or schedules the batch, while an adversary who cannot
// predict the seed defeats the batch equation only by cancelling a random
// 128-bit relation (probability 2^-128, the standard small-exponent
// batch-verification bound).
type weightSeed [32]byte

// newWeightSeed draws a weight seed from rng (nil uses crypto/rand).
func newWeightSeed(rng io.Reader) (*weightSeed, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var w weightSeed
	if _, err := io.ReadFull(rng, w[:]); err != nil {
		return nil, fmt.Errorf("mccls: batch: weight seed: %w", err)
	}
	return &w, nil
}

// at returns the weight for index i.
func (w *weightSeed) at(i int) (z fr.Element) {
	var buf [40]byte
	copy(buf[:32], w[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(i))
	sum := sha256.Sum256(buf[:])
	var wide [32]byte
	copy(wide[32-weightBits/8:], sum[:weightBits/8])
	if z.SetBytesCanonical(wide[:]); z.IsZero() {
		return fr.One() // zero would void the signature's equation; 2^-128 event
	}
	return z
}

// Verify checks a single signature (the bisection leaf path; identical to
// Verifier.Verify).
func (bv *BatchVerifier) Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	return bv.vf.Verify(pk, msg, sig)
}

// window is one batch call's input with its per-signature precomputation:
// wa[i] is the weighted commitment ρᵢ·Aᵢ and rho[i] the 128-bit weight ρᵢ.
type window struct {
	vf   *Verifier
	pks  []*PublicKey
	msgs [][]byte
	sigs []*Signature
	wa   []bn254.G1
	rho  []fr.Element
}

// newWindow runs the shape checks and weighted-commitment precomputation
// for every index. Shape and zero-hash failures surface as errors, matching
// the single-signature path.
func (bv *BatchVerifier) newWindow(pks []*PublicKey, msgs [][]byte, sigs []*Signature) (*window, error) {
	seed, err := newWeightSeed(bv.weights)
	if err != nil {
		return nil, err
	}
	n := len(sigs)
	w := &window{vf: bv.vf, pks: pks, msgs: msgs, sigs: sigs, wa: make([]bn254.G1, n), rho: make([]fr.Element, n)}
	for i, sig := range sigs {
		if err := checkShape(pks[i], sig); err != nil {
			return nil, err
		}
		k, err := bv.vf.params.vOverH(pks[i], msgs[i], sig)
		if err != nil {
			return nil, err
		}
		// ρᵢ·Aᵢ = (ρᵢ·Vᵢ·hᵢ⁻¹)·P - ρᵢ·Rᵢ: one fixed-base table pass plus
		// one short-scalar mult.
		w.rho[i] = seed.at(i)
		k.Mul(&k, &w.rho[i])
		var rhoR bn254.G1
		rhoR.ScalarMultFr(sig.R, &w.rho[i])
		w.wa[i].ScalarBaseMultAddFr(&k, rhoR.Neg(&rhoR))
	}
	return w, nil
}

// check decides the aggregate equation over exactly the signatures at idxs
// with one lockstep multi-pairing. Π e(ρᵢ·Aᵢ, S) = e(Σρᵢ·Aᵢ, S) is an
// identity in GT, so folding equal-S pairs decides exactly what the
// pairwise product decides for the same weights.
func (w *window) check(idxs []int) bool {
	ps := make([]*bn254.G1, 0, len(idxs)+1)
	qs := make([]*bn254.G2, 0, len(idxs)+1)
	var ids []string
	var rhoSums []fr.Element // rhoSums[j] = Σρᵢ over the signatures under ids[j]
	for _, i := range idxs {
		if g := slices.IndexFunc(qs, w.sigs[i].S.Equal); g >= 0 {
			ps[g].Add(ps[g], &w.wa[i])
		} else {
			ps = append(ps, new(bn254.G1).Set(&w.wa[i]))
			qs = append(qs, w.sigs[i].S)
		}
		if j := slices.Index(ids, w.pks[i].ID); j >= 0 {
			rhoSums[j].Add(&rhoSums[j], &w.rho[i])
		} else {
			ids = append(ids, w.pks[i].ID)
			rhoSums = append(rhoSums, w.rho[i])
		}
	}
	qSum := bn254.G2Infinity()
	var term bn254.G2
	for j, id := range ids {
		qSum.Add(qSum, term.ScalarMultFr(w.vf.qid(id), &rhoSums[j]))
	}
	ps = append(ps, w.vf.negPpub)
	qs = append(qs, qSum)
	return bn254.PairingCheck(ps, qs)
}

// checkOne is the bisection leaf: the cached-constant Verify, cheaper than
// a one-element aggregate equation.
func (w *window) checkOne(i int) bool {
	return w.vf.Verify(w.pks[i], w.msgs[i], w.sigs[i]) == nil
}

// reject partitions [0, n) into chunks, runs check on every chunk across
// the worker pool, bisects failing chunks down to single signatures (decided
// by checkOne), and reports the rejected indices as a *batchError. check
// must be deterministic for a given index set and safe for concurrent use.
// Chunk boundaries depend only on the chunk width and every chunk is decided
// independently, so the result is the same at any worker count. The only
// other error source is a panicking check, surfaced by the runner's panic
// recovery.
func (bv *BatchVerifier) reject(n int, check func(idxs []int) bool, checkOne func(i int) bool) error {
	var trials []runner.Trial[[]int]
	for lo := 0; lo < n; lo += bv.chunk {
		idxs := make([]int, min(bv.chunk, n-lo))
		for i := range idxs {
			idxs[i] = lo + i
		}
		trials = append(trials, runner.Trial[[]int]{
			Label: fmt.Sprintf("chunk[%d:%d)", lo, lo+len(idxs)),
			Run: func(context.Context, *runner.Obs) ([]int, error) {
				return bisect(idxs, check, checkOne), nil
			},
		})
	}
	results, err := runner.Run(context.Background(), runner.Options{Workers: bv.workers}, trials)
	if err != nil {
		return fmt.Errorf("mccls: batch: %w", err)
	}
	// Chunks are in index order, so the concatenation stays sorted.
	if bad := slices.Concat(results...); len(bad) > 0 {
		return &batchError{bad: bad}
	}
	return nil
}

// bisect isolates the offending indices of a non-empty index set. Subset
// checks reuse the window's per-index weights, which is sound: a valid
// subset satisfies its aggregate equation for any weights, and an invalid
// one passes only with the probability the top-level check did.
func bisect(idxs []int, check func([]int) bool, checkOne func(int) bool) []int {
	if len(idxs) == 1 {
		if checkOne(idxs[0]) {
			return nil
		}
		return []int{idxs[0]}
	}
	if check(idxs) {
		return nil
	}
	mid := len(idxs) / 2
	return append(bisect(idxs[:mid], check, checkOne), bisect(idxs[mid:], check, checkOne)...)
}

// VerifySameSigner checks n signatures by one signer: VerifyMulti with pk
// at every index. An honest signer's signatures share one S, so every chunk
// is two pairs.
func (bv *BatchVerifier) VerifySameSigner(pk *PublicKey, msgs [][]byte, sigs []*Signature) error {
	pks := make([]*PublicKey, len(sigs))
	for i := range pks {
		pks[i] = pk
	}
	return bv.VerifyMulti(pks, msgs, sigs)
}

// VerifyMulti checks n signatures from arbitrary (possibly distinct)
// signers. Rejections return an error that wraps ErrVerifyFailed and lists
// the offending indices (see BatchOffenders); structural problems (length
// mismatch, malformed signatures or keys) are reported directly.
func (bv *BatchVerifier) VerifyMulti(pks []*PublicKey, msgs [][]byte, sigs []*Signature) error {
	if len(pks) != len(msgs) || len(msgs) != len(sigs) {
		return ErrBatchMismatch
	}
	switch len(sigs) {
	case 0:
		return nil
	case 1:
		// The cached-constant Verify with no weighting overhead, with a
		// rejection reported in batch form.
		err := bv.vf.Verify(pks[0], msgs[0], sigs[0])
		if errors.Is(err, ErrVerifyFailed) {
			return &batchError{bad: []int{0}}
		}
		return err
	}
	w, err := bv.newWindow(pks, msgs, sigs)
	if err != nil {
		return err
	}
	return bv.reject(len(sigs), w.check, w.checkOne)
}
