package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
	"mccls/internal/fan"
)

// BatchOptions configure a BatchVerifier. There are none: the zero value
// is the only configuration.
type BatchOptions struct{}

// BatchVerifier is the batch-verification engine for McCLS, obtained from
// Verifier.Batch, the tree's one batch entry point. A window is decided in
// two steps. The prologue decides every signature under the S of the pair
// Verify last accepted for its identity by its A alone, in blocks sharing
// their inversions (window.prologue); the rest is settled index by index,
// one S-group at a time, by that pair or by Verify, which pins the pair when
// it accepts (window.settle). Every index is thus decided by Verify or by a
// pair Verify accepted, so verdicts and offender sets are exactly
// per-index Verify's at any GOMAXPROCS, and a batch-only consumer's next
// window of the same signers needs only the prologue.
type BatchVerifier struct {
	vf *Verifier
}

// Batch creates a batch-verification engine over this verifier's
// parameters and signer records.
func (vf *Verifier) Batch(BatchOptions) *BatchVerifier {
	return &BatchVerifier{vf: vf}
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

// Verify checks a single signature, exactly as Verifier.Verify does.
func (bv *BatchVerifier) Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	return bv.vf.Verify(pk, msg, sig)
}

// window is one batch call's input with its per-signature state. k[i] =
// Vᵢ·hᵢ⁻¹ is the fixed-base scalar of Aᵢ = k[i]·P - Rᵢ and at[i] the rest of
// index i's state. blocks is the prologue's cut, groups settle's.
type window struct {
	vf     *Verifier
	pks    []*PublicKey
	msgs   [][]byte
	sigs   []*Signature
	k      []fr.Element
	at     []slot
	blocks int
	groups [][]int
}

// slot is one index's state in a window. ok is its identity's accepted pair
// while its S is the index's: the prologue decides the index by it, valid or
// bad. bad also marks an offender settle found; err is a shape error or
// errZeroChallenge.
type slot struct {
	ok  *accepted
	bad bool
	err error
}

// newWindow runs the prologue and returns the lowest-index shape error, else
// the lowest-index zero challenge, as the single-signature path would.
func (bv *BatchVerifier) newWindow(pks []*PublicKey, msgs [][]byte, sigs []*Signature) (*window, error) {
	n, procs := len(sigs), runtime.GOMAXPROCS(0)
	w := &window{vf: bv.vf, pks: pks, msgs: msgs, sigs: sigs, k: make([]fr.Element, n), at: make([]slot, n),
		blocks: max((n+bn254.BaseMultAddBlock-1)/bn254.BaseMultAddBlock, min(n, procs))}
	fan.Out(procs, w.blocks, w, (*window).prologue)
	if i := slices.IndexFunc(w.at, func(at slot) bool { return at.err != nil && at.err != errZeroChallenge }); i >= 0 {
		return nil, w.at[i].err
	}
	if i := slices.IndexFunc(w.at, func(at slot) bool { return at.err != nil }); i >= 0 {
		return nil, fmt.Errorf("%w (index %d)", errZeroChallenge, i)
	}
	return w, nil
}

// prologue is task t of the window's fan-out: block t of a near-equal cut
// into ≤ bn254.BaseMultAddBlock indices, ≥ 1 per P. It stops at its first
// shape error, else its first zero challenge (one field inversion), and
// decides its indices under their record's accepted S as valid does, in one
// bn254.EqualBaseMultAddMany call sharing the passes' field inversions.
func (w *window) prologue(t int) {
	var hs, ks [bn254.BaseMultAddBlock]fr.Element
	var negR [bn254.BaseMultAddBlock]bn254.G1
	var as, qs [bn254.BaseMultAddBlock]*bn254.G1
	lo, hi := t*len(w.at)/w.blocks, (t+1)*len(w.at)/w.blocks
	for i := lo; i < hi; i++ {
		at, pk := &w.at[i], w.pks[i]
		if pk != nil {
			if r, _ := w.vf.signers.Get(pk.ID); r != nil {
				at.ok = r.ok.Load()
			}
		}
		if at.err = checkShape(pk, w.sigs[i], at.ok); at.err != nil {
			return
		}
		hs[i-lo] = w.vf.params.hashH2(w.msgs[i], w.sigs[i].R, pk.PID)
	}
	if j := batchInverse(w.k[lo:hi], hs[:hi-lo]); j >= 0 {
		w.at[lo+j].err = errZeroChallenge
		return
	}
	m := 0
	for i := lo; i < hi; i++ {
		at, sig := &w.at[i], w.sigs[i]
		if w.k[i].Mul(&w.k[i], &sig.V); at.ok == nil || !at.ok.s.Equal(sig.S) {
			at.ok = nil
		} else {
			ks[m], as[m], qs[m] = w.k[i], &at.ok.a, negR[m].Neg(sig.R)
			m++
		}
	}
	eq := bn254.EqualBaseMultAddMany(as[:m], ks[:m], qs[:m])
	for i := lo; i < hi; i++ {
		if w.at[i].ok != nil {
			w.at[i].bad, eq = eq&1 == 0, eq>>1
		}
	}
}

// batchInverse sets out[i] = xs[i]⁻¹ with one field inversion (Montgomery's
// trick): prefix products into out, one inversion of the whole product, and
// a backward pass that peels each inverse off. It returns -1, or the index
// of the first zero, which has no inverse; out is then not inverses.
func batchInverse(out, xs []fr.Element) int {
	prod := fr.One()
	for i := range xs {
		if xs[i].IsZero() {
			return i
		}
		out[i] = prod
		prod.Mul(&prod, &xs[i])
	}
	var inv fr.Element
	inv.Inverse(&prod)
	for i := len(xs) - 1; i >= 0; i-- {
		out[i].Mul(&out[i], &inv)
		inv.Mul(&inv, &xs[i])
	}
	return -1
}

// settle decides every index the prologue left, each exactly: those with no
// accepted pair under their S. They are cut into S-groups, the tasks of a
// fan.Out over GOMAXPROCS, and a group walks its indices in index order: an
// index whose identity's record holds an accepted pair under its S by then
// is decided by that pair (valid), any other by Verify, which pins the pair
// when it accepts. A group's first valid index thus pays one pairing and
// each later one under the same identity one fixed-base pass.
func (w *window) settle() {
	for i := range w.at {
		if w.at[i].ok != nil {
			continue
		}
		if g := slices.IndexFunc(w.groups, func(g []int) bool { return w.sigs[g[0]].S.Equal(w.sigs[i].S) }); g >= 0 {
			w.groups[g] = append(w.groups[g], i)
		} else {
			w.groups = append(w.groups, []int{i})
		}
	}
	fan.Out(runtime.GOMAXPROCS(0), len(w.groups), w, (*window).group)
}

// group is task g of settle: S-group g's indices, in index order.
func (w *window) group(g int) {
	for _, i := range w.groups[g] {
		w.at[i].bad = !w.valid(i)
	}
}

// valid decides index i exactly: by Verify, or if its identity's accepted
// pair is under Sᵢ, by whether Aᵢ = k[i]·P - Rᵢ (one fixed-base pass, not
// normalised) is the accepted A: Verify accepted (A, S) under this identity,
// so it accepts this signature, and no other A, an accepted S being in G2.
func (w *window) valid(i int) bool {
	if r, _ := w.vf.signers.Get(w.pks[i].ID); r != nil {
		if ok := r.ok.Load(); ok != nil && ok.s.Equal(w.sigs[i].S) {
			var negR bn254.G1
			return bn254.EqualBaseMultAddMany([]*bn254.G1{&ok.a}, w.k[i:i+1], []*bn254.G1{negR.Neg(w.sigs[i].R)}) == 1
		}
	}
	return w.vf.Verify(w.pks[i], w.msgs[i], w.sigs[i]) == nil
}

// VerifySameSigner checks n signatures by one signer: VerifyMulti with pk
// at every index. An honest signer's signatures share one S, so settle
// walks them as one S-group.
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
// mismatch, malformed signatures or keys) are reported directly. A panic in
// a settling Verify is re-raised here, from any of settle's workers.
func (bv *BatchVerifier) VerifyMulti(pks []*PublicKey, msgs [][]byte, sigs []*Signature) error {
	if len(pks) != len(msgs) || len(msgs) != len(sigs) {
		return ErrBatchMismatch
	}
	w, err := bv.newWindow(pks, msgs, sigs)
	if err != nil {
		return err
	}
	w.settle()
	var bad []int
	for i := range w.at {
		if w.at[i].bad {
			bad = append(bad, i)
		}
	}
	if bad != nil {
		return &batchError{bad: bad}
	}
	return nil
}
