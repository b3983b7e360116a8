package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fp"
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

// tabledPair returns id's accepted pair if it holds S's line table, else
// nil. It reads through the cache's Get, which marks the record used.
func tabledPair(vf *Verifier, id string) *accepted {
	if r, ok := vf.signers.Get(id); ok {
		if pair := r.ok.Load(); pair != nil && pair.lines != nil {
			return pair
		}
	}
	return nil
}

// tables counts the distinct identities of pks whose accepted pair holds a
// line table.
func tables(vf *Verifier, pks []*PublicKey) int {
	held := map[string]bool{}
	for _, pk := range pks {
		if tabledPair(vf, pk.ID) != nil {
			held[pk.ID] = true
		}
	}
	return len(held)
}

// TestVerifyOpCounts pins what a Verify costs the pairing layer: one final
// exponentiation whether or not the identity's constant is cached, one
// Miller loop on a hit and two on a first contact. The G2 steps follow the
// accepted pair: a first contact runs two plain loops and pins (S, A), the
// pair's second sighting builds S's table, a hit replays it with no G2 step
// at all, and a new S under the known identity runs the plain loop and pins
// its pair, whose second sighting builds again. S's loop or table build is
// its subgroup check, so the one G2 multiplication is a first contact's
// hash of Q_ID. A first contact's S side runs on a goroutine of its own at
// more than one P, which moves no count. A signature rejected under the
// accepted S (a tampered message: S's A is not the accepted one) costs no
// pairing and no final exponentiation: only the fixed-base pass for A. A
// forged S under the known identity costs one plain loop and at most one
// final exponentiation (none for an S off G2, which the loop's end point
// finds), builds no table and leaves the pair and its table as they were.
func TestVerifyOpCounts(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() { verifyOpCounts(t, procs) })
	}
}

func verifyOpCounts(t *testing.T, procs int) {
	kgc, sk, vf := newTestSystem(t, "ops@manet")
	msg := []byte("RREQ 7 from ops@manet")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	// A second key pair for the same identity: the same m_ID, a new S.
	sk2, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("ops@manet"), fixedRand(3))
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := Sign(kgc.Params(), sk2, msg, fixedRand(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                            string
		sk                              *PrivateKey
		sig                             *Signature
		pairings, squarings, dbls, adds uint64
		g2                              uint64
	}{
		{"first contact", sk, sig, 2, 130, 130, 46, 1},
		{"second sighting", sk, sig, 1, 65, 65, 23, 0},
		{"hit", sk, sig, 1, 65, 0, 0, 0},
		{"new S", sk2, sig2, 1, 65, 65, 23, 0},
		{"second sighting of the new S", sk2, sig2, 1, 65, 65, 23, 0},
		{"hit on the new S", sk2, sig2, 1, 65, 0, 0, 0},
	} {
		d := verifyOps(t, vf, tc.sk.Public(), msg, tc.sig)
		if d.Pairings != tc.pairings || d.FinalExps != 1 || d.MillerSquarings != tc.squarings || d.LineDoubles != tc.dbls || d.LineAdds != tc.adds || d.G2ScalarMults != tc.g2 {
			t.Errorf("GOMAXPROCS %d, %s: %d Miller loops, %d final exps, %d squarings, %d doubles, %d adds, %d G2 mults; want %d, 1, %d, %d, %d, %d", procs, tc.name,
				d.Pairings, d.FinalExps, d.MillerSquarings, d.LineDoubles, d.LineAdds, d.G2ScalarMults, tc.pairings, tc.squarings, tc.dbls, tc.adds, tc.g2)
		}
	}
	before := bn254.ReadOpCounts()
	if err := vf.Verify(sk2.Public(), []byte("tampered"), sig2); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("GOMAXPROCS %d: a tampered message under the accepted S: %v", procs, err)
	}
	if d := bn254.ReadOpCounts().Sub(before); d.Pairings != 0 || d.FinalExps != 0 || d.G1ScalarMults != 1 || d.G2ScalarMults != 0 {
		t.Errorf("GOMAXPROCS %d, rejected under the accepted S: %d Miller loops, %d final exps, %d G1 and %d G2 mults; want 0, 0, 1, 0", procs,
			d.Pairings, d.FinalExps, d.G1ScalarMults, d.G2ScalarMults)
	}
	r, _ := vf.signers.Get(sk2.Public().ID)
	pair := r.ok.Load()
	// A forged S under a known identity runs the plain loop: its allocs are
	// that loop's Miller value alone, with no line table built or replayed.
	for _, tc := range []struct {
		name      string
		s         *bn254.G2
		finalExps uint64
		allocs    float64
	}{{"forged S on G2", new(bn254.G2).Add(sig2.S, sig2.S), 1, 1}, {"forged S off G2", offSubgroupG2(t), 0, 1}} {
		forged := &Signature{V: sig2.V, S: tc.s, R: sig2.R}
		before := bn254.ReadOpCounts()
		if err := vf.Verify(sk2.Public(), msg, forged); !errors.Is(err, ErrVerifyFailed) {
			t.Fatalf("GOMAXPROCS %d, %s: %v", procs, tc.name, err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.Pairings != 1 || d.FinalExps != tc.finalExps || r.ok.Load() != pair {
			t.Errorf("GOMAXPROCS %d, %s: %d Miller loops, %d final exps, pair kept %v; want 1, %d, true", procs, tc.name,
				d.Pairings, d.FinalExps, r.ok.Load() == pair, tc.finalExps)
		}
		if a := testing.AllocsPerRun(5, func() { vf.Verify(sk2.Public(), msg, forged) }); a != tc.allocs {
			t.Errorf("GOMAXPROCS %d, %s: %v allocs per Verify, want %v", procs, tc.name, a, tc.allocs)
		}
	}
	if pair.lines == nil || tables(vf, []*PublicKey{sk2.Public()}) != 1 {
		t.Errorf("GOMAXPROCS %d: the accepted pair lost its table", procs)
	}
}

// TestAcceptedPairRejectsExactly: once Verify has accepted a signer's
// (S, A), a signature under that S is decided by its A alone, as S is in
// G2 and e(·, S) injective there. Verify and a window of the one signature
// must still agree with a fresh Verifier on each case: another honest
// signature (the same A, valid), a tampered message, a replaced R, a
// replaced V, and the accepted S with another signer's V and R (a foreign
// A). The four forgeries cost Verify no pairing, and the window settles
// every case with no final exponentiation. So does a signature whose S is
// off the subgroup, which the plain Miller loop rejects before the final
// exponentiation in both, and which never becomes the accepted S.
func TestAcceptedPairRejectsExactly(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "exact@manet")
	params, pk := kgc.Params(), sk.Public()
	other, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey("other@manet"), fixedRand(3))
	if err != nil {
		t.Fatal(err)
	}
	sign := func(sk *PrivateKey, msg string, seed int64) *Signature {
		sig, err := Sign(params, sk, []byte(msg), fixedRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	msg := []byte("RREQ 7 from exact@manet")
	sig, again, foreign := sign(sk, string(msg), 2), sign(sk, "RREP 8 from exact@manet", 4), sign(other, string(msg), 5)
	if err := vf.Verify(pk, msg, sig); err != nil {
		t.Fatal(err)
	}
	one := fr.One()
	// decide checks one case: a forgery costs loops Miller loops and no
	// final exp in Verify, and no final exp in the window.
	decide := func(name string, m []byte, s *Signature, loops uint64) {
		t.Helper()
		want := NewVerifier(params).Verify(pk, m, s)
		before := bn254.ReadOpCounts()
		got := vf.Verify(pk, m, s)
		d := bn254.ReadOpCounts().Sub(before)
		if (got == nil) != (want == nil) || want != nil && !errors.Is(got, ErrVerifyFailed) {
			t.Fatalf("%s: Verify says %v, a fresh Verifier %v", name, got, want)
		}
		if want != nil && (d.Pairings != loops || d.FinalExps != 0) {
			t.Errorf("%s: Verify ran %d Miller loops and %d final exps, want %d and 0", name, d.Pairings, d.FinalExps, loops)
		}
		var bad []int
		if want != nil {
			bad = []int{0}
		}
		before = bn254.ReadOpCounts()
		err := vf.Batch(BatchOptions{}).VerifyMulti([]*PublicKey{pk}, [][]byte{m}, []*Signature{s})
		if d := bn254.ReadOpCounts().Sub(before); !slices.Equal(BatchOffenders(err), bad) || (err == nil) != (bad == nil) || d.FinalExps != 0 {
			t.Errorf("%s: the window rejects %v (%v) with %d final exps; want %v and 0", name, BatchOffenders(err), err, d.FinalExps, bad)
		}
	}
	for _, tc := range []struct {
		name  string
		msg   []byte
		sig   *Signature
		loops uint64
	}{
		{"another honest signature", []byte("RREP 8 from exact@manet"), again, 0},
		{"tampered message", []byte("tampered"), sig, 0},
		{"replaced R", msg, &Signature{V: sig.V, S: sig.S, R: foreign.R}, 0},
		{"replaced V", msg, &Signature{V: *new(fr.Element).Add(&sig.V, &one), S: sig.S, R: sig.R}, 0},
		{"accepted S, foreign A", msg, &Signature{V: foreign.V, S: sig.S, R: foreign.R}, 0},
		{"S off the subgroup", msg, &Signature{V: sig.V, S: offSubgroupG2(t), R: sig.R}, 1},
	} {
		decide(tc.name, tc.msg, tc.sig, tc.loops)
	}
	if r, _ := vf.signers.Get(pk.ID); !r.ok.Load().s.Equal(sig.S) {
		t.Fatal("the accepted S changed")
	}
}

// offSubgroupG2 returns a point of the twist E'(Fp2) outside G2: the first
// x = c + i with a square x³ + b' whose point fails the subgroup check, with
// no cofactor clearing. b' = y² - x³ is read off the generator. checkShape
// and UnmarshalSignature let it through: they test S against the curve
// equation only.
func offSubgroupG2(t testing.TB) *bn254.G2 {
	t.Helper()
	g := bn254.G2Generator()
	var b, x3 bn254.Fp2
	b.Sub(b.Square(&g.Y), x3.Mul(x3.Square(&g.X), &g.X))
	for c := uint64(1); c < 256; c++ {
		pt := &bn254.G2{X: bn254.Fp2{C0: fp.NewElement(c), C1: fp.One()}}
		var rhs bn254.Fp2
		rhs.Add(rhs.Mul(rhs.Square(&pt.X), &pt.X), &b)
		if pt.Y.Sqrt(&rhs) != nil && pt.IsOnCurve() && !pt.IsInSubgroup() {
			return pt
		}
	}
	t.Fatal("no point off the subgroup among 255 candidates")
	return nil
}

// TestNewVerifierAllocs pins an empty Verifier's cost independent of its
// cache bound: the Verifier, -P_pub and the record LRU's struct, list and
// map, which must not be pre-sized to 512 entries.
func TestNewVerifierAllocs(t *testing.T) {
	kgc, _, _ := newTestSystem(t, "allocs@manet")
	params := kgc.Params()
	small := testing.AllocsPerRun(10, func() { NewVerifierCap(params, 1) })
	if a := testing.AllocsPerRun(10, func() { NewVerifier(params) }); a != small || a != 5 {
		t.Errorf("NewVerifier allocates %v times (%v at cap 1), want 5 at both", a, small)
	}
}

// TestForgedFirstContactDoesNotPoisonCache: the cached Miller value is a
// function of (params, ID) only, so a forgery arriving before any valid
// signature from that identity is rejected and leaves the exact entry a
// valid first contact would have left. A line table is built only for a
// pair Verify accepted, at the pair's second sighting, so a forged S under
// the identity neither displaces the pair nor builds a table.
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
	r, ok := vf.signers.Get(pk.ID)
	if !ok {
		t.Fatal("first contact left no cache entry")
	}
	cached := r.m.Load()
	c := bn254.HashToG2Scale()
	negScaledPpub := new(bn254.G1).ScalarMultFr(params.Ppub, &c)
	negScaledPpub.Neg(negScaledPpub)
	y := bn254.HashToG2Short(domainH1, []byte(pk.ID))
	fresh := bn254.MillerLoopMulti([]*bn254.G1{negScaledPpub}, []*bn254.G2{y})
	if !cached.Equal(fresh) {
		t.Fatal("cached Miller value differs from MillerLoop(-c′·P_pub, Y_ID)")
	}
	negPpub := new(bn254.G1).Neg(params.Ppub)
	if !bn254.FinalExp(cached).Equal(bn254.FinalExp(bn254.MillerLoopMulti([]*bn254.G1{negPpub}, []*bn254.G2{qID(pk.ID)}))) {
		t.Fatal("cached Miller value does not reduce to e(-P_pub, Q_ID)")
	}
	if d := verifyOps(t, vf, pk, msg, sig); d.Pairings != 1 {
		t.Fatalf("valid signature after the forgery ran %d Miller loops, want 1 (m_ID cached)", d.Pairings)
	}
	if again, _ := vf.signers.Get(pk.ID); !again.m.Load().Equal(fresh) {
		t.Fatal("a verify mutated the shared cached Miller value")
	}
	forgedS := &Signature{V: sig.V, S: new(bn254.G2).Add(sig.S, sig.S), R: sig.R}
	if err := vf.Verify(pk, msg, forgedS); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("forged S: want ErrVerifyFailed, got %v", err)
	}
	for _, want := range [][2]uint64{{65, 23}, {0, 0}} { // the pair's table build, then a hit
		if d := verifyOps(t, vf, pk, msg, sig); d.LineDoubles != want[0] || d.LineAdds != want[1] {
			t.Fatalf("valid signature after a forged S ran %d doubling and %d addition steps, want %d and %d", d.LineDoubles, d.LineAdds, want[0], want[1])
		}
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

// TestConcurrentFirstContact: racing first contacts of one identity, each
// followed by a second sighting, may each compute the constants, but all
// accept and one entry of each remains. At more than one P each first
// contact computes m_ID on a goroutine of its own, so the racers number
// twice the callers.
func TestConcurrentFirstContact(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() { concurrentFirstContact(t) })
	}
}

func concurrentFirstContact(t *testing.T) {
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
			if errs[g] = vf.Verify(sk.Public(), msg, sig); errs[g] == nil {
				errs[g] = vf.Verify(sk.Public(), msg, sig)
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	r, _ := vf.signers.Get(sk.Public().ID)
	if n := vf.signers.Len(); n != 1 || r.m.Load() == nil || r.y == nil || tabledPair(vf, sk.Public().ID) == nil {
		t.Fatalf("after a racing first contact: %d records, want 1 with a Miller value, a Y_ID and an accepted pair holding its line table", n)
	}
}

// TestConcurrentSChange: two key pairs of one identity — two S values that
// replace each other's accepted pair — verified concurrently all accept.
func TestConcurrentSChange(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "twice@manet")
	params := kgc.Params()
	sk2, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey("twice@manet"), fixedRand(5))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("RREP from twice@manet")
	var sigs [2]*Signature
	for i, k := range []*PrivateKey{sk, sk2} {
		if sigs[i], err = Sign(params, k, msg, fixedRand(int64(6+i))); err != nil {
			t.Fatal(err)
		}
	}
	if sigs[0].S.Equal(sigs[1].S) {
		t.Fatal("two key pairs share an S")
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := []*PrivateKey{sk, sk2}[g%2]
			for range 3 {
				if err := vf.Verify(k.Public(), msg, sigs[g%2]); err != nil {
					errs[g] = err
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestVerifierRecordBound: 12 identities, each verified twice in order
// (the pair's second sighting builds its table), through an 8-record
// verifier leave the last 8 records, each holding an accepted pair with a
// line table of 88 lines (a replay folds one sparse product per line).
// Evicting a record drops its pair and table with it, so re-verifying the
// first identity is a first contact.
func TestVerifierRecordBound(t *testing.T) {
	rng := fixedRand(94)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	vf := NewVerifierCap(params, 8)
	msg := []byte("flood")
	pks, sigs := make([]*PublicKey, 12), make([]*Signature, 12)
	for i := range pks {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(fmt.Sprintf("table-%d", i)), rng)
		if err != nil {
			t.Fatal(err)
		}
		if sigs[i], err = Sign(params, sk, msg, rng); err != nil {
			t.Fatal(err)
		}
		pks[i] = sk.Public()
		for range 2 {
			if err := vf.Verify(pks[i], msg, sigs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := vf.signers.Len(); n != 8 {
		t.Fatalf("%d records after %d identities, want 8", n, len(pks))
	}
	g := bn254.G1Generator()
	for i, pk := range pks {
		pair := tabledPair(vf, pk.ID)
		if (pair != nil) != (i >= 4) {
			t.Fatalf("%s (identity %d) has a line table: %v, want %v", pk.ID, i, pair != nil, i >= 4)
		}
		if pair == nil {
			continue
		}
		if !pair.s.Equal(sigs[i].S) {
			t.Fatalf("%s: table of another S", pk.ID)
		}
		before := bn254.ReadOpCounts()
		pair.lines.MillerLoop(g)
		if d := bn254.ReadOpCounts().Sub(before); d.SparseMuls != 88 {
			t.Fatalf("%s: table of %d lines, want 88", pk.ID, d.SparseMuls)
		}
	}
	if d := verifyOps(t, vf, pks[0], msg, sigs[0]); d.Pairings != 2 || d.LineDoubles != 130 || d.LineAdds != 46 {
		t.Fatalf("evicted identity re-verified: %d Miller loops, %d doubling and %d addition steps; want a first contact's 2, 130 and 46",
			d.Pairings, d.LineDoubles, d.LineAdds)
	}
}

// TestVerifierEvictionRace: 16 identities verified twice each, one
// goroutine apiece, through a 4-record verifier, so records are created,
// filled and evicted under one another's feet. Every signature verifies,
// the bound holds, and every table a record still holds is its identity's
// S.
func TestVerifierEvictionRace(t *testing.T) {
	rng := fixedRand(98)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	vf := NewVerifierCap(params, 4)
	msg := []byte("RREQ from a racing signer")
	pks, sigs := make([]*PublicKey, 16), make([]*Signature, 16)
	for i := range pks {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(fmt.Sprintf("race-%d", i)), rng)
		if err != nil {
			t.Fatal(err)
		}
		if sigs[i], err = Sign(params, sk, msg, rng); err != nil {
			t.Fatal(err)
		}
		pks[i] = sk.Public()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range pks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 2 {
				if err := vf.Verify(pks[i], msg, sigs[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := vf.signers.Len(); n > 4 {
		t.Fatalf("%d records, bound 4", n)
	}
	for i, pk := range pks {
		if pair := tabledPair(vf, pk.ID); pair != nil && !pair.s.Equal(sigs[i].S) {
			t.Fatalf("%s: table of another S", pk.ID)
		}
	}
}

// TestVerifyOffSubgroupS: an on-curve S outside the r-order subgroup, which
// UnmarshalSignature accepts, is rejected without a panic and before any
// final exponentiation, by a warm verifier and a cold one alike. The warm
// one's plain Miller loop finds the S off G2: one Miller loop. The cold one
// runs m_ID, a function of the identity, which its record keeps, beside S's
// Miller loop, which finds the S off G2: two Miller loops. Neither pins the
// S or builds a table for it: the warm verifier keeps the signer's pair
// with its table.
func TestVerifyOffSubgroupS(t *testing.T) {
	kgc, sk, warm := newTestSystem(t, "twist@manet")
	pk, msg := sk.Public(), []byte("RREQ with a stray S")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := warm.Verify(pk, msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := UnmarshalSignature((&Signature{V: sig.V, S: offSubgroupG2(t), R: sig.R}).Marshal())
	if err != nil {
		t.Fatalf("an on-curve S off the subgroup: %v", err)
	}
	cold := NewVerifier(kgc.Params())
	for _, tc := range []struct {
		name  string
		vf    *Verifier
		loops uint64
	}{{"warm", warm, 1}, {"cold", cold, 2}} {
		before := bn254.ReadOpCounts()
		if err := tc.vf.Verify(pk, msg, bad); !errors.Is(err, ErrVerifyFailed) {
			t.Errorf("%s: want ErrVerifyFailed, got %v", tc.name, err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.Pairings != tc.loops || d.FinalExps != 0 {
			t.Errorf("%s: %d Miller loops and %d final exps, want %d and 0", tc.name, d.Pairings, d.FinalExps, tc.loops)
		}
		if r, ok := tc.vf.signers.Get(pk.ID); !ok || r.m.Load() == nil || r.ok.Load() != nil && !r.ok.Load().s.Equal(sig.S) {
			t.Errorf("%s: the record lost m_ID or accepted the S off the subgroup", tc.name)
		}
	}
	if pair := tabledPair(warm, pk.ID); pair == nil || !pair.s.Equal(sig.S) || tabledPair(cold, pk.ID) != nil {
		t.Fatal("an off-subgroup S changed the line tables")
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
// every enrolled identity cached, a one-entry Verifier and the
// paper-literal oracle. The fuzz input picks the message, the signer and an
// XOR mask laid over the 224 signature bytes followed by the public-key
// bytes (identity included, so a masked key can name a never-seen identity
// to the warm Verifier too). The warm Verifier sees the signer's honest
// signature, the masked one — a changed S under a known identity when the
// mask hits S — and the honest one again; the one-entry Verifier alternates
// another signer's signature with the masked one seen twice, so every
// identity change evicts the one record, and the masked signature is
// checked by the plain Miller loop of a first contact and then, if valid,
// by the line table its accepted pair gains at that second sighting — or,
// when the mask names the other signer, under that signer's accepted pair:
// by its A, by its table's replay, or by the plain loop for a new S.
// All five verdicts must land in the same accept/reject class, and the
// honest signatures must keep verifying around the masked one.
func FuzzVerifyColdWarmSpecAgree(f *testing.F) {
	rng := fixedRand(71)
	kgc, err := Setup(rng)
	if err != nil {
		f.Fatal(err)
	}
	params := kgc.Params()
	warm, evict := NewVerifier(params), NewVerifierCap(params, 1)
	var sks []*PrivateKey
	for _, id := range []string{"fz-a", "fz-b", "fz-c", "fz-d"} {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			f.Fatal(err)
		}
		warm.rhs(nil, id)
		sks = append(sks, sk)
	}

	flip := func(off int, b byte) []byte { return append(make([]byte, off), b) }
	off := offSubgroupG2(f).Marshal()
	for i, b := range sks[1].s.Marshal() {
		off[i] ^= b
	}
	f.Add([]byte("RREQ 7"), byte(0), []byte{})                         // untouched: accept
	f.Add([]byte("RREQ 8"), byte(1), append(make([]byte, 32), off...)) // S on the curve, off G2
	f.Add([]byte{}, byte(1), flip(31, 1))                              // V
	f.Add([]byte("RREP"), byte(2), flip(32+127, 1))                    // S off the curve
	f.Add([]byte("RERR"), byte(3), flip(32+128+63, 1))                 // R off the curve
	f.Add([]byte("HELLO"), byte(4), flip(SignatureSize+8+3, 'z'))      // identity: an unseen signer
	f.Add([]byte("HELLO"), byte(5), flip(SignatureSize+7, 1))          // identity length prefix
	f.Add([]byte("DATA"), byte(6), flip(SignatureSize+8+4+63, 1))      // P_ID off the curve

	f.Fuzz(func(t *testing.T, msg []byte, signer byte, mask []byte) {
		sk, other := sks[int(signer)%len(sks)], sks[(int(signer)+1)%len(sks)]
		sig, err := Sign(params, sk, msg, fixedRand(int64(signer)))
		if err != nil {
			t.Fatal(err)
		}
		otherSig, err := Sign(params, other, msg, fixedRand(int64(signer)+1))
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
		honest := func(vf *Verifier, sk *PrivateKey, sig *Signature) {
			if err := vf.Verify(sk.Public(), msg, sig); err != nil {
				t.Fatalf("honest signature of %s rejected around the masked one: %v", sk.Public().ID, err)
			}
		}
		cold := verdict(NewVerifierCap(params, 1).Verify(pk, msg, gotSig))
		spec := verdict(verifySpec(warm, pk, msg, gotSig))
		honest(warm, sk, sig)
		hot := verdict(warm.Verify(pk, msg, gotSig))
		honest(warm, sk, sig)
		honest(evict, other, otherSig)
		evicted := verdict(evict.Verify(pk, msg, gotSig))
		tabled := verdict(evict.Verify(pk, msg, gotSig))
		honest(evict, other, otherSig)
		if cold != hot || cold != spec || cold != evicted || cold != tabled {
			t.Fatalf("cold %q, warm %q, one-entry %q then %q, spec %q", cold, hot, evicted, tabled, spec)
		}
	})
}
