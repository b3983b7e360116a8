package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mccls/internal/core"
)

// The crypto workloads: what a CPS/MANET node waits for when it signs an
// outgoing control packet and authenticates an incoming one. Tags use the
// secrouting wire layout P_ID‖sig.Marshal(); the receiver knows the
// sender's identity from the packet header.

const (
	msgBytes     = 48
	pidBytes     = 64
	warmSigners  = 16
	windowSigs   = 64
	forgedEvery  = 8  // window k is forged when k%forgedEvery == forgedEvery-1
	controlCount = 16 // tampered signatures / sampled tags per run
)

// peer is one enrolled node: its key and the len‖ID prefix a receiver
// prepends to the 64 P_ID bytes of a tag to rebuild the public key.
type peer struct {
	sk     *core.PrivateKey
	prefix []byte
}

// signed is one pre-signed packet.
type signed struct {
	from int
	msg  []byte
	tag  []byte
}

// fixture is the seeded key material shared by the crypto workloads.
type fixture struct {
	kgc    *core.KGC
	params *core.Params
	peers  []peer
	rng    *rand.Rand // every key, message and Sign nonce derives from the seed
}

func newFixture(seed int64, n int) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	kgc, err := core.Setup(rng)
	if err != nil {
		return nil, err
	}
	f := &fixture{kgc: kgc, params: kgc.Params(), rng: rng}
	f.params.Precompute()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%d-%d", seed, i)
		sk, err := core.GenerateKeyPair(f.params, kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			return nil, err
		}
		prefix := binary.BigEndian.AppendUint64(nil, uint64(len(id)))
		f.peers = append(f.peers, peer{sk: sk, prefix: append(prefix, id...)})
	}
	return f, nil
}

func (f *fixture) message() []byte {
	msg := make([]byte, msgBytes)
	f.rng.Read(msg)
	return msg
}

// sign is the sender's whole job: Sign, then encode the tag.
func (f *fixture) sign(from int, msg []byte, sc scope) ([]byte, error) {
	sk := f.peers[from].sk
	s := sc.begin("core.Sign")
	sig, err := core.Sign(f.params, sk, msg, f.rng)
	sc.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = sc.begin("core.Signature.Marshal")
	tag := append(sk.Public().PID.Marshal(), sig.Marshal()...)
	sc.tr.end(s)
	return tag, nil
}

func (f *fixture) presign(from int) (signed, error) {
	msg := f.message()
	tag, err := f.sign(from, msg, scope{})
	return signed{from: from, msg: msg, tag: tag}, err
}

// authenticate is the receiver's whole job: both decodes (with their
// curve and subgroup checks) and the verification.
func (f *fixture) authenticate(vf *core.Verifier, p signed, sc scope) error {
	s := sc.begin("core.UnmarshalPublicKey")
	pk, err := core.UnmarshalPublicKey(append(slices.Clip(f.peers[p.from].prefix), p.tag[:pidBytes]...))
	sc.tr.end(s)
	if err != nil {
		return err
	}
	s = sc.begin("core.UnmarshalSignature")
	sig, err := core.UnmarshalSignature(p.tag[pidBytes:])
	sc.tr.end(s)
	if err != nil {
		return err
	}
	s = sc.begin("core.Verifier.Verify")
	err = vf.Verify(pk, p.msg, sig)
	sc.tr.end(s)
	return err
}

// tamperedRejected checks the negative control: the same tag over a message
// with one bit flipped must fail with ErrVerifyFailed, nothing else.
func (f *fixture) tamperedRejected(vf *core.Verifier, p signed) bool {
	bad := p
	bad.msg = slices.Clone(p.msg)
	bad.msg[0] ^= 1
	return errors.Is(f.authenticate(vf, bad, scope{}), core.ErrVerifyFailed)
}

// --- sign_fresh ---

type signFresh struct {
	noLayerState
	*fixture
	vf      *core.Verifier
	sampled []signed // every sampleEvery-th tag, verified after the pass
}

const sampleEvery = 509

func setupSignFresh(seed int64, _ *tracer) (instance, error) {
	f, err := newFixture(seed, warmSigners)
	if err != nil {
		return nil, err
	}
	return &signFresh{fixture: f, vf: core.NewVerifier(f.params)}, nil
}

func (w *signFresh) op(_ int, i int64, tr *tracer) (sample, bool) {
	from := int(i % warmSigners)
	msg := w.message()
	sc := tr.root(i)
	t := time.Now()
	tag, err := w.sign(from, msg, sc)
	d := time.Since(t)
	tr.end(sc.parent)
	ok := err == nil && len(tag) == pidBytes+core.SignatureSize
	if ok && i%sampleEvery == 0 && len(w.sampled) < controlCount {
		w.sampled = append(w.sampled, signed{from: from, msg: msg, tag: tag})
	}
	return sample{dur: d, work: 1, gated: true}, ok
}

func (w *signFresh) controls() (attempted, failed int) {
	for _, p := range w.sampled {
		attempted += 2
		if w.authenticate(w.vf, p, scope{}) != nil {
			failed++
		}
		if !w.tamperedRejected(w.vf, p) {
			failed++
		}
	}
	return attempted, failed
}

func (w *signFresh) layerCounts() map[string]float64 { return nil }
func (w *signFresh) close()                          {}

// --- auth_warm / auth_cold ---

type auth struct {
	noLayerState
	*fixture
	vf   *core.Verifier
	pool []signed
}

func setupAuthWarm(seed int64, _ *tracer) (instance, error) {
	f, err := newFixture(seed, warmSigners)
	if err != nil {
		return nil, err
	}
	w := &auth{fixture: f, vf: core.NewVerifier(f.params)}
	for k := 0; k < sizes.warmPool; k++ {
		p, err := f.presign(k % warmSigners)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, p)
	}
	// Warm both per-identity caches: one verification per neighbour.
	for _, p := range w.pool[:warmSigners] {
		if err := f.authenticate(w.vf, p, scope{}); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func setupAuthCold(seed int64, _ *tracer) (instance, error) {
	f, err := newFixture(seed, sizes.coldIDs)
	if err != nil {
		return nil, err
	}
	w := &auth{fixture: f, vf: core.NewVerifierCap(f.params, sizes.coldCacheCap)}
	for k := 0; k < sizes.coldIDs; k++ {
		p, err := f.presign(k)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, p)
	}
	return w, nil
}

func (w *auth) op(_ int, i int64, tr *tracer) (sample, bool) {
	p := w.pool[i%int64(len(w.pool))]
	sc := tr.root(i)
	t := time.Now()
	err := w.authenticate(w.vf, p, sc)
	d := time.Since(t)
	tr.end(sc.parent)
	return sample{dur: d, work: 1, gated: true}, err == nil
}

func (w *auth) controls() (attempted, failed int) {
	for k := 0; k < controlCount; k++ {
		attempted++
		if !w.tamperedRejected(w.vf, w.pool[k*len(w.pool)/controlCount]) {
			failed++
		}
	}
	return attempted, failed
}

// --- batch_flood ---

type window struct {
	pks    []*core.PublicKey
	msgs   [][]byte
	sigs   []*core.Signature
	forged int // index of the planted forgery, -1 for a clean window
}

type batchFlood struct {
	noLayerState
	*fixture
	bv      *core.BatchVerifier
	windows []window
}

// decoded pre-signs a packet and returns it the way the batch engine
// receives it: already decoded.
func (f *fixture) decoded(from int) (*core.PublicKey, []byte, *core.Signature, error) {
	msg := f.message()
	sig, err := core.Sign(f.params, f.peers[from].sk, msg, f.rng)
	return f.peers[from].sk.Public(), msg, sig, err
}

func setupBatchFlood(seed int64, _ *tracer) (instance, error) {
	f, err := newFixture(seed, warmSigners)
	if err != nil {
		return nil, err
	}
	vf := core.NewVerifier(f.params)
	// Batch weights stay on crypto/rand, as the engine requires.
	w := &batchFlood{fixture: f, bv: vf.Batch(core.BatchOptions{})}
	for k := 0; k < sizes.windowPool; k++ {
		win := window{forged: -1}
		from := make([]int, windowSigs)
		for j := range from {
			from[j] = f.rng.Intn(warmSigners)
			pk, msg, sig, err := f.decoded(from[j])
			if err != nil {
				return nil, err
			}
			win.pks, win.msgs, win.sigs = append(win.pks, pk), append(win.msgs, msg), append(win.sigs, sig)
		}
		if k%forgedEvery == forgedEvery-1 {
			// A valid signature by the right signer over another message.
			win.forged = f.rng.Intn(windowSigs)
			_, _, sig, err := f.decoded(from[win.forged])
			if err != nil {
				return nil, err
			}
			win.sigs[win.forged] = sig
		}
		w.windows = append(w.windows, win)
	}
	// Warm both per-identity caches the way a running node has them: Q_ID
	// (used by the window equation) and e(P_pub,Q_ID) (used by the
	// bisection's leaves).
	for from := range f.peers {
		pk, msg, sig, err := f.decoded(from)
		if err != nil {
			return nil, err
		}
		if err := vf.Verify(pk, msg, sig); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *batchFlood) op(_ int, i int64, tr *tracer) (sample, bool) {
	win := w.windows[i%int64(len(w.windows))]
	sc := tr.root(i)
	s := sc.begin("core.BatchVerifier.VerifyMulti")
	t := time.Now()
	err := w.bv.VerifyMulti(win.pks, win.msgs, win.sigs)
	d := time.Since(t)
	tr.end(s)
	tr.end(sc.parent)
	ok := err == nil
	if win.forged >= 0 {
		// Exactly the planted index, nothing else.
		ok = slices.Equal(core.BatchOffenders(err), []int{win.forged})
	}
	return sample{dur: d, work: windowSigs, gated: win.forged < 0}, ok
}

func (w *batchFlood) controls() (int, int) { return 0, 0 }
