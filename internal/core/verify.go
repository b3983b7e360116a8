package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
	"mccls/internal/fan"
	"mccls/internal/lru"
)

// DefaultIdentityCacheCap bounds the Verifier's signer records. 512 records,
// each holding its accepted pair with S's line table (11,264 + 208 bytes),
// are ≈ 6.58 MB of heap at worst (measured after GC), so a flood of unique
// identities recycles records instead of growing memory without limit. Past
// 512 recurring signers every verify is a first contact.
const DefaultIdentityCacheCap = 1 << 9

// signer is one identity's record. y = Y_ID (Q_ID = H1(ID) = c′·Y_ID) is set
// before the record is shared; m = m_ID is filled by the identity's first
// Verify; ok is the (S, A) of the last signature Verify accepted, with S's
// line table from its second sighting on. The three live and are evicted
// together.
type signer struct {
	y  *bn254.G2
	m  atomic.Pointer[bn254.Fp12]
	ok atomic.Pointer[accepted]
}

// accepted is a signature's (S, A = (V/h)·P - R) that Verify accepted under
// the record's identity, and lines, S's line table once Verify has seen the
// pair twice (nil before). Verify's verdict depends on (A, S, Q_ID) only, so
// every signature carrying the same S and A under that identity is valid,
// and, S being in G2 (checked) with e(·, S) injective, every other A invalid.
type accepted struct {
	s     bn254.G2
	a     bn254.G1
	lines *bn254.G2Lines
}

// Verifier checks McCLS signatures. It keeps one record per identity
// (signer) with two values: m_ID = MillerLoop(-c′·P_pub, Y_ID), the
// paper's e(P_pub, Q_ID) (= e(c′·P_pub, Y_ID)) moved to the left of the
// equation and left unreduced, so that Verify decides
// FE(MillerLoop(A, S)·m_ID) = 1 — one Miller loop and one final
// exponentiation for a known identity (the paper's "only one
// pairing operation since e(P_pub, Q_ID) is a constant"), a second Miller
// loop but no second final exponentiation on first contact; and Y_ID, which
// m_ID pairs with -c′·P_pub. It also keeps the (S, A) Verify last accepted
// with S's line table, so that a known signer's Miller loop does no G2
// arithmetic and the batch engine skips its pairing. An identity is known
// when its record existed before the call. The records are LRU-bounded so
// unknown-identity floods cannot exhaust memory. Safe for concurrent use.
type Verifier struct {
	params  *Params
	negPpub *bn254.G1 // -c′·P_pub, the G1 side of every m_ID
	signers *lru.Cache[*signer]
}

// NewVerifier creates a verifier for the given system parameters with the
// default identity-cache bound.
func NewVerifier(params *Params) *Verifier {
	return NewVerifierCap(params, DefaultIdentityCacheCap)
}

// NewVerifierCap creates a verifier that holds at most cacheCap signer
// records (minimum 1).
func NewVerifierCap(params *Params, cacheCap int) *Verifier {
	c, negPpub := bn254.HashToG2Scale(), new(bn254.G1)
	return &Verifier{params: params, negPpub: negPpub.Neg(negPpub.ScalarMultFr(params.Ppub, &c)), signers: lru.New[*signer](cacheCap)}
}

// record returns id's record, created if absent. Y_ID is hashed outside the
// cache lock (the short hash costs about 40 % of a Miller loop): racing
// creators hash the same value and share the first record stored.
func (vf *Verifier) record(id string) *signer {
	if r, ok := vf.signers.Get(id); ok {
		return r
	}
	r := &signer{y: bn254.HashToG2Short(domainH1, []byte(id))}
	return vf.signers.GetOrCreate(id, func() *signer { return r })
}

// rhs fills the m_ID of record r (nil: id's, created if absent) and returns
// the record. m_ID is a function of (params, id) only, never of the
// signature under check, and is shared read-only; racing callers store the
// same value.
func (vf *Verifier) rhs(r *signer, id string) *signer {
	if r == nil {
		r = vf.record(id)
	}
	r.m.Store(bn254.MillerLoopMulti([]*bn254.G1{vf.negPpub}, []*bn254.G2{r.y}))
	return r
}

// checkShape rejects malformed signatures (ok's S, accepted, is on the curve).
func checkShape(pk *PublicKey, sig *Signature, ok *accepted) error {
	if sig == nil || sig.S == nil || sig.R == nil {
		return fmt.Errorf("%w: missing component", ErrInvalidSignature)
	}
	if sig.V.IsZero() {
		return fmt.Errorf("%w: V out of range", ErrInvalidSignature)
	}
	if sig.S.IsInfinity() || (ok == nil || !ok.s.Equal(sig.S)) && !sig.S.IsOnCurve() {
		return fmt.Errorf("%w: S invalid", ErrInvalidSignature)
	}
	if !sig.R.IsOnCurve() {
		return fmt.Errorf("%w: R invalid", ErrInvalidSignature)
	}
	if pk == nil || pk.PID == nil || pk.PID.IsInfinity() || !pk.PID.IsOnCurve() {
		return fmt.Errorf("%w: public key invalid", ErrInvalidKey)
	}
	return nil
}

// errZeroChallenge rejects h = H2(M, R, P_ID) ≡ 0 (mod r), which has no
// inverse — a ~2⁻²⁵⁴ event for an honest oracle but reachable in principle —
// as a malformed signature.
var errZeroChallenge = fmt.Errorf("%w: challenge hash is zero mod r", ErrInvalidSignature)

// vOverH returns V·h⁻¹ for h = H2(M, R, P_ID), the fixed-base scalar of
// A = (V/h)·P - R.
func (p *Params) vOverH(pk *PublicKey, msg []byte, sig *Signature) (k fr.Element, err error) {
	h := p.hashH2(msg, sig.R, pk.PID)
	if !k.Inverse(&h) {
		return k, errZeroChallenge
	}
	k.Mul(&k, &sig.V)
	return k, nil
}

// Verify runs CL-Verify: with h = H2(M, R, P_ID), accept iff
//
//	e(V·P - h·R, h⁻¹·S) = e(P_pub, Q_ID).
//
// The implementation decides the algebraically identical product form
// e((V·h⁻¹)·P - R, S)·e(-P_pub, Q_ID) = 1: h⁻¹·S is traded for a scalar
// inversion in Zr, and the constant enters as its cached Miller value, so
// one final exponentiation reduces both pairings, cached or not. The Miller
// loop over S follows the identity's accepted pair (DESIGN.md §6): under
// another S, the plain loop, which checks S in G2; under the accepted S,
// another A is rejected with no pairing and the accepted A replays the
// pair's line table, built at the pair's second sighting. It returns nil on
// success and ErrVerifyFailed (or a shape error) on rejection; a first
// contact hashes Y_ID and computes m_ID beside S's side.
func (vf *Verifier) Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	if err := checkShape(pk, sig, nil); err != nil {
		return err
	}
	k, err := vf.params.vOverH(pk, msg, sig)
	if err != nil {
		return err
	}
	r, _ := vf.signers.Get(pk.ID) // nil: a first contact
	s := sSide{k: k}
	if r != nil && r.m.Load() != nil {
		s.run(sig, r.ok.Load())
	} else {
		c := &sSide{k: k, sig: sig, vf: vf, id: pk.ID, r: r}
		fan.Out(min(2, runtime.GOMAXPROCS(0)), 2, c, (*sSide).side)
		s, r = *c, c.r
	}
	if s.f == nil || !bn254.ReducesToOne(s.f.Mul(s.f, r.m.Load())) {
		return ErrVerifyFailed
	}
	// Pin (S, A), or give the pinned pair the table its replay just built.
	if ok := r.ok.Load(); ok == nil || !ok.s.Equal(sig.S) || ok.lines == nil && s.lines != nil {
		r.ok.Store(&accepted{s: *sig.S, a: s.a, lines: s.lines})
	}
	return nil
}

// sSide is S's side of a Verify, which needs no hash: A = k·P - R for
// k = V/h, S's line table if the accepted pair's replay ran, and e(A, S)'s
// Miller value f, nil for an S off G2 or, under an accepted S, another A. A
// first contact's sSide also carries the other side's inputs and its result
// r, id's record (side).
type sSide struct {
	k     fr.Element
	lines *bn254.G2Lines
	a     bn254.G1
	f     *bn254.Fp12
	sig   *Signature
	vf    *Verifier
	id    string
	r     *signer
}

// side is task t of a first contact's fan.Out: S's side, or rhs (Y_ID, m_ID).
func (s *sSide) side(t int) {
	if t == 0 {
		s.run(s.sig, nil)
	} else {
		s.r = s.vf.rhs(s.r, s.id)
	}
}

// run fills s for sig under the record's accepted pair ok (nil: none): the
// plain loop under another S, else nothing for another A, else the pair's
// table, built now if the pair has none (S is in G2: never nil).
func (s *sSide) run(sig *Signature, ok *accepted) {
	var negR bn254.G1
	s.a.ScalarBaseMultAddFr(&s.k, negR.Neg(sig.R)) // one fixed-base table pass
	switch {
	case ok == nil || !ok.s.Equal(sig.S):
		s.f = bn254.MillerLoopMulti([]*bn254.G1{&s.a}, []*bn254.G2{sig.S})
	case ok.a.Equal(&s.a):
		if s.lines = ok.lines; s.lines == nil {
			s.lines = bn254.NewG2Lines(sig.S)
		}
		s.f = s.lines.MillerLoop(&s.a)
	}
}
