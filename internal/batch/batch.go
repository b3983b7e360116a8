// Package batch is the chunked, parallel, self-bisecting batch-check
// engine behind the tree's one batch verifier, core.BatchVerifier (reached
// through core.Verifier.Batch). It owns the three properties any aggregate
// check shares, so the scheme only supplies its aggregate equation:
//
//   - Chunking: n items are partitioned into fixed-size chunks, each
//     checked as one aggregate equation (one shared multi-pairing for the
//     pairing schemes).
//   - Parallelism: chunks are fanned out over an internal/runner worker
//     pool. Chunk boundaries depend only on ChunkSize and every chunk is
//     decided independently, so the accept/reject outcome — and the exact
//     offender set — is bit-identical at any worker count.
//   - Bisection fallback: a failing chunk is split recursively until the
//     offending items are isolated, so a rejected batch reports WHICH
//     signatures failed instead of telling the caller to re-verify
//     everything one by one. Subset checks reuse the caller's per-index
//     random weights, which is sound: a valid subset satisfies its
//     aggregate equation for any weights, and an invalid one passes only
//     with the same probability the top-level check did.
package batch

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"mccls/internal/runner"
)

// DefaultChunkSize is the chunk width when Options.ChunkSize is zero. One
// chunk is one shared final exponentiation, so wider chunks amortize
// better; narrower chunks parallelize and bisect better. 64 is the window
// the benchmark's batch_flood workload prices as batch.us_per_sig.
const DefaultChunkSize = 64

// Options configure a batch check.
type Options struct {
	// Workers bounds the chunk worker pool (default GOMAXPROCS).
	Workers int
	// ChunkSize is the number of items per aggregate check
	// (default DefaultChunkSize).
	ChunkSize int
}

// Check reports whether the aggregate equation holds over exactly the
// items at idxs. It must be deterministic for a given index set and safe
// for concurrent use; idxs is sorted and non-empty.
type Check func(idxs []int) bool

// CheckOne reports whether the single item i verifies on its own. It is
// used at bisection leaves, where schemes usually have a cheaper path than
// a one-element aggregate equation (e.g. the cached-constant Verify).
type CheckOne func(i int) bool

// Reject partitions [0, n) into chunks, runs check on every chunk across
// the worker pool, bisects failing chunks down to individual items, and
// returns the sorted indices of rejected items (nil when all pass). The
// result is independent of Workers. A nil checkOne falls back to check on
// single-element index sets. The only error source is a panicking check,
// surfaced via the runner's panic recovery.
func Reject(n int, opts Options, check Check, checkOne CheckOne) ([]int, error) {
	if n <= 0 {
		return nil, nil
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	if checkOne == nil {
		checkOne = func(i int) bool { return check([]int{i}) }
	}
	var trials []runner.Trial[[]int]
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		idxs := make([]int, hi-lo)
		for i := range idxs {
			idxs[i] = lo + i
		}
		trials = append(trials, runner.Trial[[]int]{
			Label: fmt.Sprintf("chunk[%d:%d)", lo, hi),
			Run: func(ctx context.Context, _ *runner.Obs) ([]int, error) {
				return bisect(idxs, check, checkOne), nil
			},
		})
	}
	results, err := runner.Run(context.Background(), runner.Options{Workers: opts.Workers}, trials)
	if err != nil {
		return nil, err
	}
	var bad []int
	for _, r := range results {
		bad = append(bad, r...) // chunks are in index order, so bad stays sorted
	}
	return bad, nil
}

// bisect isolates the offending items of a failing index set.
func bisect(idxs []int, check Check, checkOne CheckOne) []int {
	if len(idxs) == 0 {
		return nil
	}
	if len(idxs) == 1 {
		if checkOne(idxs[0]) {
			return nil
		}
		return idxs
	}
	if check(idxs) {
		return nil
	}
	mid := len(idxs) / 2
	return append(bisect(idxs[:mid], check, checkOne), bisect(idxs[mid:], check, checkOne)...)
}

// Error reports the outcome of a rejected batch: the sorted indices that
// failed. It unwraps to the scheme's rejection sentinel so existing
// errors.Is checks keep working.
type Error struct {
	// Bad holds the sorted indices of the rejected items.
	Bad []int
	// Cause is the scheme's rejection sentinel (e.g. ErrVerifyFailed).
	Cause error
}

func (e *Error) Error() string {
	return fmt.Sprintf("batch: %d item(s) rejected (indices %v): %v", len(e.Bad), e.Bad, e.Cause)
}

// Unwrap returns the scheme's rejection sentinel.
func (e *Error) Unwrap() error { return e.Cause }

// Weights derives the per-item random exponents of a small-exponent batch
// test from one seed. Every weight is a uniformly random nonzero scalar of
// at most WeightBits bits, derived deterministically from (seed, index) —
// so the same seed yields the same accept/reject decision regardless of
// how the engine chunks or schedules the batch, while an adversary who
// cannot predict the seed defeats the batch equation only by cancelling a
// random 128-bit relation (probability 2^-128, the standard small-exponent
// batch-verification bound).
type Weights struct {
	seed [32]byte
}

// WeightBits is the weight length. 128 bits keeps the cheat probability at
// 2^-128 while halving the scalar-multiplication cost of full-width
// weights.
const WeightBits = 128

// NewWeights draws a weight seed from rng (nil uses crypto/rand).
func NewWeights(rng io.Reader) (*Weights, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var w Weights
	if _, err := io.ReadFull(rng, w.seed[:]); err != nil {
		return nil, fmt.Errorf("batch: weight seed: %w", err)
	}
	return &w, nil
}

// At returns the weight for index i.
func (w *Weights) At(i int) *big.Int {
	var buf [40]byte
	copy(buf[:32], w.seed[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(i))
	sum := sha256.Sum256(buf[:])
	z := new(big.Int).SetBytes(sum[:WeightBits/8])
	if z.Sign() == 0 {
		z.SetInt64(1) // zero would void the item's equation; 2^-128 event
	}
	return z
}
