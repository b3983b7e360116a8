package core

import (
	"fmt"
	"runtime"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
	"mccls/internal/lru"
)

// DefaultIdentityCacheCap bounds the Verifier's per-identity caches (m_ID,
// an Fp12; Q_ID; S's line table, further capped by lineCacheCap). Generous
// — 16k identities ≈ 16k·(384+128) bytes of curve material — but bounded,
// so a flood of unique identities recycles cache slots instead of growing
// memory without limit.
const DefaultIdentityCacheCap = 1 << 14

// lineCacheCap caps the line-table cache: 256 tables of 11,264 bytes are
// ≈ 2.9 MB, where DefaultIdentityCacheCap of them would be ≈ 185 MB. A full
// cache admits no new identity: beyond 256 recurring signers, evicting to
// build would cost every packet a build and a replay, more than the plain
// Miller loop, so the first 256 keep their tables and the rest run the loop.
const lineCacheCap = 256

// Verifier checks McCLS signatures. It caches three per-identity values:
// m_ID = MillerLoop(-P_pub, Q_ID), the paper's e(P_pub, Q_ID) moved to the
// left of the equation and left unreduced, so that Verify decides
// FE(MillerLoop(A, S)·m_ID) = 1 — one Miller loop and one final
// exponentiation for a known identity (the paper's "only one pairing
// operation since e(P_pub, Q_ID) is a constant"), a second Miller loop but
// no second final exponentiation on first contact; Q_ID = H1(ID), which the
// batch engine's multi-signer equation consumes directly; and the line
// table of the signer's S, so that a known signer's Miller loop does no G2
// arithmetic. All three caches are LRU-bounded so unknown-identity floods
// cannot exhaust memory. Safe for concurrent use.
type Verifier struct {
	params  *Params
	negPpub *bn254.G1 // -P_pub, the G1 side of every m_ID

	rhsCache  *lru.Cache[*bn254.Fp12]
	qidCache  *lru.Cache[*bn254.G2]
	lineCache *lru.Cache[*bn254.G2Lines]
}

// NewVerifier creates a verifier for the given system parameters with the
// default identity-cache bound.
func NewVerifier(params *Params) *Verifier {
	return NewVerifierCap(params, DefaultIdentityCacheCap)
}

// NewVerifierCap creates a verifier whose per-identity caches hold at most
// cacheCap identities (minimum 1).
func NewVerifierCap(params *Params, cacheCap int) *Verifier {
	return &Verifier{
		params:    params,
		negPpub:   new(bn254.G1).Neg(params.Ppub),
		rhsCache:  lru.New[*bn254.Fp12](cacheCap),
		qidCache:  lru.New[*bn254.G2](cacheCap),
		lineCache: lru.New[*bn254.G2Lines](min(cacheCap, lineCacheCap)),
	}
}

// qid returns the cached Q_ID = H1(id), computing it on first use.
func (vf *Verifier) qid(id string) *bn254.G2 {
	if q, ok := vf.qidCache.Get(id); ok {
		return q
	}
	// Compute outside the cache lock (hash-to-G2 costs about 40 % of a Miller
	// loop): racing callers compute the same value and the second Put is
	// idempotent.
	q := vf.params.QID(id)
	vf.qidCache.Put(id, q)
	return q
}

// rhs computes and caches id's m_ID: a function of (params, id) only, never
// of the signature under check, shared read-only. Racing first contacts
// compute the same value, and the second Put is idempotent.
func (vf *Verifier) rhs(id string) *bn254.Fp12 {
	m := bn254.MillerLoopMulti([]*bn254.G1{vf.negPpub}, []*bn254.G2{vf.qid(id)})
	vf.rhsCache.Put(id, m)
	return m
}

// rhsBeside runs rhs(id) on a goroutine of its own, which delivers the m_ID
// when the caller receives it. The caller must receive.
func (vf *Verifier) rhsBeside(id string) <-chan *bn254.Fp12 {
	c := make(chan *bn254.Fp12)
	go func() { c <- vf.rhs(id) }()
	return c
}

// checkShape rejects structurally invalid signatures before any group math.
func checkShape(pk *PublicKey, sig *Signature) error {
	if sig == nil || sig.S == nil || sig.R == nil {
		return fmt.Errorf("%w: missing component", ErrInvalidSignature)
	}
	if sig.V.IsZero() {
		return fmt.Errorf("%w: V out of range", ErrInvalidSignature)
	}
	if sig.S.IsInfinity() || !sig.S.IsOnCurve() {
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
// one final exponentiation reduces both pairings, cached or not, and the
// Miller loop over S replays S's line table (DESIGN.md §3). It returns nil
// on success and ErrVerifyFailed (or a shape error) on rejection.
// At GOMAXPROCS > 1 a first contact computes m_ID on a goroutine beside
// its own Miller loop (rhsBeside).
func (vf *Verifier) Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	if err := checkShape(pk, sig); err != nil {
		return err
	}
	k, err := vf.params.vOverH(pk, msg, sig)
	if err != nil {
		return err
	}
	m, known := vf.rhsCache.Get(pk.ID)
	var later <-chan *bn254.Fp12
	switch {
	case known:
	case runtime.GOMAXPROCS(0) > 1:
		later = vf.rhsBeside(pk.ID)
	default:
		m = vf.rhs(pk.ID)
	}
	// A = (V/h)·P - R, fused into one fixed-base table pass.
	var a, negR bn254.G1
	a.ScalarBaseMultAddFr(&k, negR.Neg(sig.R))
	lines, build := vf.lineTable(pk.ID, sig.S, known)
	if build {
		lines = bn254.NewG2Lines(sig.S) // nil only for an S off the curve
	}
	var f *bn254.Fp12
	if lines != nil {
		f = bn254.MillerLoopMixed([]*bn254.G1{&a}, []*bn254.G2Lines{lines}, nil, nil)
	} else {
		f = bn254.MillerLoopMulti([]*bn254.G1{&a}, []*bn254.G2{sig.S})
	}
	if later != nil {
		m = <-later
	}
	if !bn254.ReducesToOne(f.Mul(f, m)) {
		return ErrVerifyFailed
	}
	if build && lines != nil {
		vf.lineCache.PutIfRoom(pk.ID, lines)
	}
	return nil
}

// lineTable is S's one table rule, for Verify and the batch chunk: id's
// cached table if built from s; else, for a known id (seen before: m_ID
// cached, or in a batch Q_ID), build (the caller builds a new one) while the
// cache holds id or has room; else nil, the plain loop — cheaper than
// build + replay on a first contact. Callers cache a built table with
// PutIfRoom once a signature under it verifies, so a forged S displaces
// none and racing admitters never evict a signer.
func (vf *Verifier) lineTable(id string, s *bn254.G2, known bool) (lines *bn254.G2Lines, build bool) {
	l, ok := vf.lineCache.Get(id)
	switch {
	case ok && l.Q().Equal(s):
		return l, false
	case known && (ok || vf.lineCache.Len() < vf.lineCache.Cap()):
		return nil, true
	}
	return nil, false
}
