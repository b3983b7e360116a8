package core

import (
	"errors"
	"sync"
	"testing"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// verifyOps returns the pairing-layer operations one Verify call performs.
func verifyOps(t *testing.T, vf *Verifier, pk *PublicKey, msg []byte, sig *Signature) bn254.OpCounts {
	t.Helper()
	before := bn254.ReadOpCounts()
	if err := vf.Verify(pk, msg, sig); err != nil {
		t.Fatal(err)
	}
	return bn254.ReadOpCounts().Sub(before)
}

// TestVerifyOpCounts pins what a Verify costs the pairing layer: one final
// exponentiation whether or not the identity's constant is cached, one
// Miller loop on a hit and two on a first contact.
func TestVerifyOpCounts(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "ops@manet")
	msg := []byte("RREQ 7 from ops@manet")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := verifyOps(t, vf, sk.Public(), msg, sig); d.Pairings != 2 || d.FinalExps != 1 || d.MillerSquarings != 130 {
		t.Errorf("miss: %d Miller loops, %d final exps, %d squarings; want 2, 1, 130", d.Pairings, d.FinalExps, d.MillerSquarings)
	}
	if d := verifyOps(t, vf, sk.Public(), msg, sig); d.Pairings != 1 || d.FinalExps != 1 || d.MillerSquarings != 65 {
		t.Errorf("hit: %d Miller loops, %d final exps, %d squarings; want 1, 1, 65", d.Pairings, d.FinalExps, d.MillerSquarings)
	}
}

// TestNewVerifierAllocs pins an empty Verifier's cost independent of its
// cache bound: the two LRUs must not pre-size their maps to 16k entries.
func TestNewVerifierAllocs(t *testing.T) {
	kgc, _, _ := newTestSystem(t, "allocs@manet")
	params := kgc.Params()
	small := testing.AllocsPerRun(10, func() { NewVerifierCap(params, 1) })
	if a := testing.AllocsPerRun(10, func() { NewVerifier(params) }); a != small || a > 12 {
		t.Errorf("NewVerifier allocates %v times (%v at cap 1), want the same and at most 12", a, small)
	}
}

// TestForgedFirstContactDoesNotPoisonCache: the cached Miller value is a
// function of (params, ID) only, so a forgery arriving before any valid
// signature from that identity is rejected and leaves the exact entry a
// valid first contact would have left.
func TestForgedFirstContactDoesNotPoisonCache(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "victim@manet")
	params, pk := kgc.Params(), sk.Public()
	msg := []byte("RREQ 7 from victim")
	sig, err := Sign(params, sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	one := fr.One()
	forged := &Signature{V: *new(fr.Element).Add(&sig.V, &one), S: sig.S, R: sig.R}
	if err := vf.Verify(pk, msg, forged); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("forged first contact: want ErrVerifyFailed, got %v", err)
	}
	if err := verifySpec(vf, pk, msg, forged); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("oracle on the forgery: want ErrVerifyFailed, got %v", err)
	}
	cached, ok := vf.rhsCache.Get(pk.ID)
	if !ok {
		t.Fatal("first contact left no cache entry")
	}
	negPpub := new(bn254.G1).Neg(params.Ppub)
	fresh := bn254.MillerLoopMulti([]*bn254.G1{negPpub}, []*bn254.G2{params.QID(pk.ID)})
	if !cached.Equal(fresh) {
		t.Fatal("cached Miller value differs from MillerLoop(-P_pub, Q_ID)")
	}
	if d := verifyOps(t, vf, pk, msg, sig); d.Pairings != 1 {
		t.Fatalf("valid signature after the forgery ran %d Miller loops, want 1 (a hit)", d.Pairings)
	}
	if again, _ := vf.rhsCache.Get(pk.ID); !again.Equal(fresh) {
		t.Fatal("a verify mutated the shared cached Miller value")
	}
}

// TestVerifyRejectsInfinityCommitment crafts (V, R) with (V/h)·P = R, so
// the commitment A is the identity and its Miller loop is skipped: the
// product is then the bare cached constant, which must not reduce to one.
func TestVerifyRejectsInfinityCommitment(t *testing.T) {
	kgc, sk, warm := newTestSystem(t, "inf@manet")
	params, pk := kgc.Params(), sk.Public()
	msg := []byte("RREP with a vanishing commitment")
	honest, err := Sign(params, sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Verify(pk, msg, honest); err != nil {
		t.Fatal(err)
	}
	tt, err := fr.Random(fixedRand(3))
	if err != nil {
		t.Fatal(err)
	}
	R := new(bn254.G1).ScalarBaseMultAddFr(&tt, nil)
	h := params.hashH2(msg, R, pk.PID)
	crafted := &Signature{V: *h.Mul(&h, &tt), S: honest.S, R: R}

	k, err := params.vOverH(pk, msg, crafted)
	if err != nil {
		t.Fatal(err)
	}
	if a := new(bn254.G1).ScalarBaseMultAddFr(&k, new(bn254.G1).Neg(R)); !a.IsInfinity() {
		t.Fatal("crafted signature does not make A the identity")
	}
	for name, vf := range map[string]*Verifier{"hit": warm, "miss": NewVerifier(params)} {
		if err := vf.Verify(pk, msg, crafted); !errors.Is(err, ErrVerifyFailed) {
			t.Errorf("%s: want ErrVerifyFailed, got %v", name, err)
		}
	}
	if err := verifySpec(warm, pk, msg, crafted); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("oracle: want ErrVerifyFailed, got %v", err)
	}
}

// TestConcurrentFirstContact: racing first contacts of one identity may
// each compute the constant, but all accept and one entry remains.
func TestConcurrentFirstContact(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "racer@manet")
	msg := []byte("HELLO from racer")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = vf.Verify(sk.Public(), msg, sig)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if n, q := vf.rhsCache.Len(), vf.qidCache.Len(); n != 1 || q != 1 {
		t.Fatalf("cache entries after a racing first contact: %d Miller values, %d Q_IDs, want 1 and 1", n, q)
	}
}

// verdict folds a Verify result into its accept/reject class.
func verdict(err error) string {
	switch {
	case err == nil:
		return "accept"
	case errors.Is(err, ErrVerifyFailed):
		return "reject"
	case errors.Is(err, ErrInvalidSignature):
		return "malformed signature"
	case errors.Is(err, ErrInvalidKey):
		return "malformed key"
	}
	return "unexpected: " + err.Error()
}

// FuzzVerifyColdWarmSpecAgree drives one wire-decoded (public key,
// signature) pair through a first-contact Verifier, a Verifier that has
// every enrolled identity cached, and the paper-literal oracle. The fuzz
// input picks the message, the signer and an XOR mask laid over the 224
// signature bytes followed by the public-key bytes (identity included, so
// a masked key can name a never-seen identity to the warm Verifier too).
// All three must land in the same accept/reject class.
func FuzzVerifyColdWarmSpecAgree(f *testing.F) {
	rng := fixedRand(71)
	kgc, err := Setup(rng)
	if err != nil {
		f.Fatal(err)
	}
	params := kgc.Params()
	warm := NewVerifier(params)
	var sks []*PrivateKey
	for _, id := range []string{"fz-a", "fz-b", "fz-c", "fz-d"} {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			f.Fatal(err)
		}
		warm.rhs(id)
		sks = append(sks, sk)
	}

	flip := func(off int, b byte) []byte { return append(make([]byte, off), b) }
	f.Add([]byte("RREQ 7"), byte(0), []byte{})                    // untouched: accept
	f.Add([]byte{}, byte(1), flip(31, 1))                         // V
	f.Add([]byte("RREP"), byte(2), flip(32+127, 1))               // S off the curve
	f.Add([]byte("RERR"), byte(3), flip(32+128+63, 1))            // R off the curve
	f.Add([]byte("HELLO"), byte(4), flip(SignatureSize+8+3, 'z')) // identity: an unseen signer
	f.Add([]byte("HELLO"), byte(5), flip(SignatureSize+7, 1))     // identity length prefix
	f.Add([]byte("DATA"), byte(6), flip(SignatureSize+8+4+63, 1)) // P_ID off the curve

	f.Fuzz(func(t *testing.T, msg []byte, signer byte, mask []byte) {
		sk := sks[int(signer)%len(sks)]
		sig, err := Sign(params, sk, msg, fixedRand(int64(signer)))
		if err != nil {
			t.Fatal(err)
		}
		wire := append(sig.Marshal(), sk.Public().Marshal()...)
		for i := range min(len(mask), len(wire)) {
			wire[i] ^= mask[i]
		}
		gotSig, err := UnmarshalSignature(wire[:SignatureSize])
		if err != nil {
			return
		}
		pk, err := UnmarshalPublicKey(wire[SignatureSize:])
		if err != nil {
			return
		}
		cold := verdict(NewVerifierCap(params, 1).Verify(pk, msg, gotSig))
		hot := verdict(warm.Verify(pk, msg, gotSig))
		spec := verdict(verifySpec(warm, pk, msg, gotSig))
		if cold != hot || cold != spec {
			t.Fatalf("cold %q, warm %q, spec %q", cold, hot, spec)
		}
	})
}
