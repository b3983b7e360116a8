package core

import (
	"cmp"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// chunkWidth is the number of signatures per aggregate check. One chunk is
// one shared final exponentiation, so wider chunks amortize better;
// narrower chunks parallelize better and hand fewer indices to a failing
// chunk's window.settle. 64 is the window the benchmark's batch_flood
// workload prices as batch.us_per_sig.
const chunkWidth = 64

// BatchOptions configure a BatchVerifier.
type BatchOptions struct {
	// Weights seeds the per-signature random weights (nil uses
	// crypto/rand). The weights must be unpredictable to signers; fix the
	// source only in tests.
	Weights io.Reader
}

// BatchVerifier is the batch-verification engine for McCLS, obtained from
// Verifier.Batch, the tree's one batch entry point. A signature under the S
// of the pair Verify last accepted for its identity is decided exactly by
// its A, in blocks sharing their inversions (window.prologue), and enters no
// check. The rest is cut into chunks of chunkWidth, each decided by one
// aggregate equation on a worker pool, whose Miller loop or table build
// fails a chunk with an S off G2; a failing chunk is settled index by
// index, one S-group at a time (window.settle). The equation is
//
//	Π_S e(Σᵢ∈S ρᵢ·Aᵢ, S) · e(-c′·P_pub, Σ_ID (Σᵢ∈ID ρᵢ)·Y_ID) = 1
//
// with Aᵢ = (Vᵢ·hᵢ⁻¹)·P - Rᵢ, Q_ID = c′·Y_ID (Verifier) and ρᵢ = aᵢ + bᵢ·λ
// independent weights drawn as two 64-bit halves over the curve's
// endomorphism (2¹²⁸ distinct weights, cheat probability 2⁻¹²⁸; DESIGN.md
// §6 "Batch weights"). Both
// per-signer constants of a McCLS check are folded: signatures carrying the
// same S value share one G1 sum (S is message-independent, so a signer
// contributes one pair however many signatures it has in the chunk), and
// signatures under the same identity share one weighted Y_ID term. A chunk
// from k signers is therefore one lockstep multi-pairing of k+1 pairs — one
// shared Fp12 squaring per Miller iteration and one shared final
// exponentiation — and a one-signer window is its two-pair case. Grouping
// is on S point equality, never on identity, so a forged S under a known
// identity forms a group of its own. A group's S replays its line table
// under Verify's rule (lineTable), so a chunk of known signers whose tables
// are cached steps one G2 chain, the Y_ID sum's; a table built for a chunk
// is stored only once the chunk's product is one. A chunk's work spreads
// over the P's the other chunks leave free (window.check, window.settle).
type BatchVerifier struct {
	vf      *Verifier
	weights io.Reader
	// chunk and workers are chunkWidth and 0 (GOMAXPROCS) outside this
	// package's tests.
	chunk, workers int
}

// Batch creates a batch-verification engine over this verifier's
// parameters and signer records.
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
// batch test: weight i is a + b·λ mod r for a uniformly random pair of
// 64-bit halves (a, b) ≠ (0, 0) derived from (seed, i), so one seed yields
// one accept/reject decision however the engine chunks or schedules the
// batch. Distinct pairs are distinct scalars (bn254.EndoScalar), so an
// adversary who cannot predict the seed defeats the batch equation only by
// cancelling a random relation over 2^128 - 1 weights: probability 2^-128,
// the standard small-exponent batch-verification bound.
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
func (w *weightSeed) at(i int) (z bn254.EndoScalar) {
	var buf [40]byte
	copy(buf[:32], w[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(i))
	sum := sha256.Sum256(buf[:])
	z.A[0], z.B[0] = binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:16])
	if z.A[0]|z.B[0] == 0 {
		z.A[0] = 1 // zero would void the signature's equation; 2^-128 event
	}
	return z
}

// Verify checks a single signature, exactly as Verifier.Verify does.
func (bv *BatchVerifier) Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	return bv.vf.Verify(pk, msg, sig)
}

// window is one batch call's input with its per-signature precomputation.
// rest lists the indices the prologue did not settle, bad those it rejected.
// k[i] = Vᵢ·hᵢ⁻¹ is the fixed-base scalar of Aᵢ = k[i]·P - Rᵢ and, for the
// rest, rho[i] the weight ρᵢ as its halves; at[i] is the rest of index i's
// state. blocks is the prologue's cut; width is the fan-out of each check
// and settle: GOMAXPROCS shared among the chunks.
type window struct {
	vf     *Verifier
	pks    []*PublicKey
	msgs   [][]byte
	sigs   []*Signature
	k      []fr.Element
	rho    []bn254.EndoScalar
	at     []slot
	bad    []int
	rest   []int
	blocks int
	width  int
}

// slot is one index's state in a window. r is its identity's record if that
// existed before the window (nil: a first contact): a second sighting, which
// earns its S a line table. ok is r's accepted pair while its S is the
// index's: it settles the index, valid or bad; bad also marks an offender
// window.settle found; err a shape error or errZeroChallenge.
type slot struct {
	r   *signer
	ok  *accepted
	bad bool
	err error
}

// newWindow runs the prologue, returns the lowest-index shape error, else
// the lowest-index zero challenge, as the single-signature path would, and
// draws the weights of the rest, whose S a chunk's loop or table build
// checks in G2 (the small-exponent equation needs prime-order points).
func (bv *BatchVerifier) newWindow(pks []*PublicKey, msgs [][]byte, sigs []*Signature) (*window, error) {
	n, procs := len(sigs), runtime.GOMAXPROCS(0)
	w := &window{vf: bv.vf, pks: pks, msgs: msgs, sigs: sigs, k: make([]fr.Element, n), at: make([]slot, n),
		rest: make([]int, 0, n), blocks: max((n+bn254.BaseMultAddBlock-1)/bn254.BaseMultAddBlock, min(n, procs))}
	fanOut(procs, w.blocks, w, (*window).prologue)
	if i := slices.IndexFunc(w.at, func(at slot) bool { return at.err != nil && at.err != errZeroChallenge }); i >= 0 {
		return nil, w.at[i].err
	}
	if i := slices.IndexFunc(w.at, func(at slot) bool { return at.err != nil }); i >= 0 {
		return nil, fmt.Errorf("%w (index %d)", errZeroChallenge, i)
	}
	for i := range n {
		if w.at[i].bad {
			w.bad = append(w.bad, i)
		} else if w.at[i].ok == nil {
			w.rest = append(w.rest, i)
		}
	}
	if len(w.rest) > 0 {
		seed, err := newWeightSeed(bv.weights)
		if err != nil {
			return nil, err
		}
		w.rho = make([]bn254.EndoScalar, n)
		for _, i := range w.rest {
			w.rho[i] = seed.at(i)
		}
	}
	w.width = max(1, procs/max(1, (len(w.rest)+bv.chunk-1)/bv.chunk))
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
			if at.r, _ = w.vf.signers.Get(pk.ID); at.r != nil {
				at.ok = at.r.ok.Load()
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

// check evaluates the aggregate equation's left side over exactly the
// signatures at idxs with one final exponentiation; the set passes iff the
// product is one, and nil if a Miller loop finds an S off G2.
// Π e(ρᵢ·Aᵢ, S) = e(Σρᵢ·Aᵢ, S) in GT, so folding equal-S pairs yields
// exactly the pairwise product for the same weights. A group's
// point Σρᵢ·Aᵢ = (Σρᵢ·kᵢ)·P - Σρᵢ·Rᵢ is one fixed-base pass and one joint
// ladder over its R values, and Σ_ID (Σρᵢ)·Y_ID one joint ladder over the
// identities.
// A group with a line table is a table pair of the Miller loop, the rest
// point pairs; tables this check built are stored if its product is one.
//
// After the serial grouping, the Y_ID misses, the table builds, the group
// points and the Y_ID sum are tasks for the window's width of workers, and
// the pairs are cut into one Miller loop per worker. Squaring distributes
// over the product, so the parts multiply to the one-loop value.
func (w *window) check(idxs []int) *bn254.GT {
	n := len(idxs)
	p := &pass{w: w, idxs: idxs, gs: make([]group, 0, n),
		rs: make([]*bn254.G1, 0, n), rhos: make([]bn254.EndoScalar, 0, n),
		ids: make([]string, 0, n), ys: make([]*bn254.G2, 0, n), rhoSums: make([]bn254.EndoScalar, 0, n),
		tps: make([]*bn254.G1, 0, n), ts: make([]*bn254.G2Lines, 0, n),
		ps: make([]*bn254.G1, 0, n+1), qs: make([]*bn254.G2, 0, n+1)}
	for _, i := range idxs {
		// Each S-group and each identity is summed at its first member.
		if s := w.sigs[i].S; !slices.ContainsFunc(p.gs, func(g group) bool { return g.s.Equal(s) }) {
			g := group{s: s, first: i, lo: len(p.rs)}
			g.lines, g.build = lineTable(w.at[i].r, s)
			for _, j := range idxs {
				if w.sigs[j].S.Equal(s) {
					k := w.rho[j].Fr()
					g.k.Add(&g.k, k.Mul(&k, &w.k[j]))
					p.rs, p.rhos = append(p.rs, w.sigs[j].R), append(p.rhos, w.rho[j])
				}
			}
			g.hi = len(p.rs)
			p.gs = append(p.gs, g)
		}
		if id := w.pks[i].ID; !slices.Contains(p.ids, id) {
			var rho bn254.EndoScalar
			for _, j := range idxs {
				if w.pks[j].ID == id {
					rho.Add(&rho, &w.rho[j])
				}
			}
			var y *bn254.G2 // nil: looked up by lookup
			if r := w.at[i].r; r != nil {
				y = r.y
			}
			p.ids, p.ys, p.rhoSums = append(p.ids, id), append(p.ys, y), append(p.rhoSums, rho)
		}
	}
	if slices.Contains(p.ys, nil) {
		fanOut(w.width, len(p.ids), p, (*pass).lookup)
	}
	fanOut(w.width, 1+len(p.gs), p, (*pass).point) // the Y_ID sum first: the longest task
	for _, g := range p.gs {
		if g.lines != nil {
			p.tps, p.ts = append(p.tps, g.a), append(p.ts, g.lines)
		} else {
			p.ps, p.qs = append(p.ps, g.a), append(p.qs, g.s)
		}
	}
	p.ps, p.qs = append(p.ps, w.vf.negPpub), append(p.qs, &p.ysum)
	var f *bn254.Fp12
	if parts := min(w.width, len(p.tps)+len(p.ps)); parts == 1 {
		f = bn254.MillerLoopMixed(p.tps, p.ts, p.ps, p.qs)
	} else {
		p.fs = make([]*bn254.Fp12, parts)
		fanOut(parts, parts, p, (*pass).miller)
		if slices.Contains(p.fs, nil) {
			return nil
		}
		f = p.fs[0]
		for _, fk := range p.fs[1:] {
			f.Mul(f, fk)
		}
	}
	v := bn254.FinalExp(f)
	if v.IsOne() {
		for _, g := range p.gs {
			if g.build && g.lines != nil {
				w.at[g.first].r.lines.Store(g.lines)
			}
		}
	}
	return v
}

// group is one S-group of a check: its members' R values and weights are
// rs[lo:hi] and rhos[lo:hi] of the pass, k their Σρᵢ·kᵢ, a the point Σρᵢ·Aᵢ
// and lines S's table (nil: a point pair), built by the check when build.
type group struct {
	s      *bn254.G2
	lines  *bn254.G2Lines
	build  bool
	first  int
	k      fr.Element
	lo, hi int
	a      *bn254.G1
}

// pass is one check's working set, shared by its tasks. Each task writes
// only its own slot: a group, a Y_ID, the Y_ID sum or a Miller part.
type pass struct {
	w             *window
	idxs          []int
	gs            []group
	rs            []*bn254.G1
	rhos, rhoSums []bn254.EndoScalar
	ids           []string
	ys            []*bn254.G2
	ysum          bn254.G2
	tps, ps       []*bn254.G1
	ts            []*bn254.G2Lines
	qs            []*bn254.G2
	fs            []*bn254.Fp12
}

// lookup is task t of the Y_ID round: the Y_ID of identity t, from its
// record, which is created (Y_ID hashed) if absent.
func (p *pass) lookup(t int) {
	if p.ys[t] == nil {
		p.ys[t] = p.w.vf.record(p.ids[t]).y
	}
}

// point is task t of the point round: the Y_ID sum for t = 0, else group
// t-1's table build and its point Σρᵢ·Aᵢ.
func (p *pass) point(t int) {
	if t == 0 {
		p.ysum.MultiScalarMultEndo(p.ys, p.rhoSums)
		return
	}
	g := &p.gs[t-1]
	if g.build {
		g.lines = bn254.NewG2Lines(g.s) // nil for an S off G2
	}
	g.a = new(bn254.G1).ScalarBaseMultSubEndo(&g.k, p.rs[g.lo:g.hi], p.rhos[g.lo:g.hi])
}

// miller is Miller part k of len(p.fs): the pairs from start(k) to
// start(k+1) in the order point pairs, then table pairs.
func (p *pass) miller(k int) {
	lo, hi, np := p.start(k), p.start(k+1), len(p.ps)
	tlo, thi := max(lo, np)-np, max(hi, np)-np
	lo, hi = min(lo, np), min(hi, np)
	p.fs[k] = bn254.MillerLoopMixed(p.tps[tlo:thi], p.ts[tlo:thi], p.ps[lo:hi], p.qs[lo:hi])
}

// start is where Miller part k begins, the parts cut to near-equal cost: a
// point pair steps its G2 chain, about twice the cost of a table pair's
// folds. Every part holds at least one pair.
func (p *pass) start(k int) int {
	parts, np, all := len(p.fs), len(p.ps), len(p.ps)+len(p.tps)
	total := 2*np + len(p.tps)
	j, cost := 0, 0
	for q := 1; q <= k; q++ {
		for lo := j; j < all-(parts-q) && (j == lo || cost*parts < q*total); j++ {
			if cost++; j < np {
				cost++
			}
		}
	}
	return j
}

// fanOut runs task(x, 0), …, task(x, n-1) on min(width, n) goroutines, the
// caller one of them, each claiming the next index from a shared counter, so
// tasks start in index order. At width 1 they run inline, in order, and the
// fan-out allocates nothing. The caller yields after spawning, so a worker
// starts on its P at once (DESIGN.md §6 "Fan-out"). A task's panic stops its
// worker; the others finish, and the caller re-raises the first panic.
func fanOut[T any](width, n int, x T, task func(T, int)) {
	if width = min(width, n); width <= 1 {
		for t := range n {
			task(x, t)
		}
		return
	}
	f := &fan[T]{x: x, task: task, n: n}
	f.wg.Add(width - 1)
	for range width - 1 {
		go func() {
			defer f.wg.Done()
			f.run()
		}()
	}
	runtime.Gosched()
	f.run()
	f.wg.Wait()
	if f.fault != nil {
		panic(f.fault)
	}
}

// fan is a wide fanOut's state, its one allocation beside the closures.
type fan[T any] struct {
	x     T
	task  func(T, int)
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
	once  sync.Once
	fault any
}

// run claims and runs tasks until none is left, recording a panic.
func (f *fan[T]) run() {
	defer func() {
		if v := recover(); v != nil {
			f.once.Do(func() { f.fault = v })
		}
	}()
	for t := int(f.next.Add(1)) - 1; t < f.n; t = int(f.next.Add(1)) - 1 {
		f.task(f.x, t)
	}
}

// rejection is one reject call: chunk t is idxs[t·width : (t+1)·width],
// bad[t] its offenders and errs[t] its recovered panic.
type rejection struct {
	w     *window
	idxs  []int
	width int
	bad   [][]int
	errs  []error
}

// reject cuts the sorted index list idxs of w into chunks, decides every
// chunk by one aggregate check on a fanOut of bv.workers (0: GOMAXPROCS),
// settles the chunks whose product is not one (window.settle), and reports
// the rejected indices as a *batchError. Weights are per index, chunk
// boundaries depend only on idxs and the chunk width, and a failing chunk's
// verdicts are exact, so the outcome and the offender set are identical at
// any worker count. The only other error source is a panicking chunk, which
// recovers the panic, from its fanOut workers too: the batch fails, not the
// process.
func (bv *BatchVerifier) reject(idxs []int, w *window) error {
	chunks := (len(idxs) + bv.chunk - 1) / bv.chunk
	r := &rejection{w: w, idxs: idxs, width: bv.chunk, bad: make([][]int, chunks), errs: make([]error, chunks)}
	fanOut(cmp.Or(bv.workers, runtime.GOMAXPROCS(0)), chunks, r, (*rejection).chunk)
	if err := errors.Join(r.errs...); err != nil {
		return fmt.Errorf("mccls: batch: %w", err)
	}
	// Chunks are in index order, so the concatenation stays sorted.
	if bad := slices.Concat(r.bad...); len(bad) > 0 {
		return &batchError{bad: bad}
	}
	return nil
}

// chunk decides chunk t: its offenders, or the panic it raised.
func (r *rejection) chunk(t int) {
	defer func() {
		if v := recover(); v != nil {
			r.errs[t] = fmt.Errorf("chunk %d panicked: %v", t, v)
		}
	}()
	lo, hi := t*r.width, min((t+1)*r.width, len(r.idxs))
	if c := r.idxs[lo:hi:hi]; !r.w.check(c).IsOne() {
		r.bad[t] = r.w.settle(c)
	}
}

// settle returns the offenders of a chunk whose product is not one, each
// index decided exactly. The chunk's S-groups are tasks for the window's
// width of workers, and a group walks its indices in index order: an index
// whose identity's record holds an accepted pair under its S by then is
// decided by that pair (valid), any other by Verify, which pins the pair
// when it accepts. A group's first valid index thus pays one pairing and
// each later one under the same identity one fixed-base pass.
func (w *window) settle(chunk []int) []int {
	var groups [][]int
	for _, i := range chunk {
		if g := slices.IndexFunc(groups, func(g []int) bool { return w.sigs[g[0]].S.Equal(w.sigs[i].S) }); g >= 0 {
			groups[g] = append(groups[g], i)
		} else {
			groups = append(groups, []int{i})
		}
	}
	fanOut(w.width, len(groups), groups, func(groups [][]int, g int) {
		for _, i := range groups[g] {
			w.at[i].bad = !w.valid(i)
		}
	})
	return slices.DeleteFunc(slices.Clone(chunk), func(i int) bool { return !w.at[i].bad })
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
	w, err := bv.newWindow(pks, msgs, sigs)
	if err != nil {
		return err
	}
	if err = bv.reject(w.rest, w); len(w.bad) == 0 || err != nil && BatchOffenders(err) == nil {
		return err // none rejected by the prologue, or a chunk panicked
	}
	return &batchError{bad: slices.Sorted(slices.Values(append(w.bad, BatchOffenders(err)...)))}
}
