package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fr"
)

// multiBatch builds n signatures spread across k distinct signers.
func multiBatch(t testing.TB, n, k int) (*KGC, *Verifier, []*PublicKey, [][]byte, []*Signature) {
	t.Helper()
	rng := fixedRand(90)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	vf := NewVerifier(kgc.Params())
	sks := make([]*PrivateKey, k)
	for j := range sks {
		id := "node-" + string(rune('a'+j))
		if sks[j], err = GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(id), rng); err != nil {
			t.Fatal(err)
		}
	}
	pks := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := 0; i < n; i++ {
		sk := sks[i%k]
		pks[i] = sk.Public()
		msgs[i] = []byte{byte(i), byte(i >> 8), byte(i * 5)}
		if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	return kgc, vf, pks, msgs, sigs
}

// unpinned readies vf so that every index of a window over pks reaches
// settle: each identity's record holds m_ID but no accepted pair, and so no
// line table. Verify fills the record (a first contact), and the pair it
// pinned is dropped.
func unpinned(t testing.TB, vf *Verifier, pks []*PublicKey, msgs [][]byte, sigs []*Signature) {
	t.Helper()
	seen := map[string]bool{}
	for i, pk := range pks {
		if seen[pk.ID] {
			continue
		}
		seen[pk.ID] = true
		if err := vf.Verify(pk, msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
		r, _ := vf.signers.Get(pk.ID)
		r.ok.Store(nil)
	}
}

func TestBatchEngineLocatesOffenders(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 20, 4)
	bad := append([][]byte{}, msgs...)
	bad[3] = []byte("tampered-3")
	bad[17] = []byte("tampered-17")
	err := vf.Batch(BatchOptions{}).VerifyMulti(pks, bad, sigs)
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("tampered batch: %v", err)
	}
	if got, want := BatchOffenders(err), []int{3, 17}; !slices.Equal(got, want) {
		t.Fatalf("offenders %v, want %v", got, want)
	}
}

func TestBatchEngineWorkerInvariance(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 33, 3)
	bad := append([][]byte{}, msgs...)
	bad[0] = []byte("x")
	bad[16] = []byte("y")
	bad[32] = []byte("z")
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			err := NewVerifier(kgc.Params()).Batch(BatchOptions{}).VerifyMulti(pks, bad, sigs)
			if got, want := BatchOffenders(err), []int{0, 16, 32}; !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: offenders %v (%v), want %v", procs, got, err, want)
			}
			// A clean batch must accept at every width too.
			if err := NewVerifier(kgc.Params()).Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs); err != nil {
				t.Fatalf("GOMAXPROCS %d rejected a valid batch: %v", procs, err)
			}
		})
	}
}

func TestBatchEngineSameSigner(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "sensor-99")
	rng := fixedRand(91)
	const n = 12
	msgs := make([][]byte, n)
	sigs := make([]*Signature, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		var err error
		if sigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := vf.Batch(BatchOptions{}).VerifySameSigner(sk.Public(), msgs, sigs); err != nil {
		t.Fatalf("valid same-signer batch rejected: %v", err)
	}
	bad := append([][]byte{}, msgs...)
	bad[7] = []byte("tampered")
	err := vf.Batch(BatchOptions{}).VerifySameSigner(sk.Public(), bad, sigs)
	if !slices.Equal(BatchOffenders(err), []int{7}) {
		t.Fatalf("same-signer window: %v", err)
	}
}

// TestBatchGroupedVsPairwise holds a window, whose unpinned indices settle
// grouped by S, to per-index Verify on its edge cases: a foreign S under a
// known identity, swapped public keys, R at infinity, A at infinity, S at
// infinity (a shape error) and all of them at once. Each run is on fresh
// verifiers: the same error class and the same offender slice.
func TestBatchGroupedVsPairwise(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 20, 4)
	params := kgc.Params()
	// zeroA is a signature whose commitment A = (V/h)·P - R is the point at
	// infinity: R = k·P and V = h·k.
	k := fr.NewElement(77)
	zeroR := new(bn254.G1).ScalarBaseMultAddFr(&k, nil)
	zeroV := params.hashH2(msgs[6], zeroR, pks[6].PID)
	zeroA := &Signature{V: *zeroV.Mul(&zeroV, &k), S: sigs[6].S, R: zeroR}

	type edit func(pks []*PublicKey, msgs [][]byte, sigs []*Signature)
	cases := []struct {
		name string
		edit edit
		bad  []int
	}{
		{"clean repeated signers", func([]*PublicKey, [][]byte, []*Signature) {}, nil},
		{"tampered message", func(_ []*PublicKey, m [][]byte, _ []*Signature) { m[9] = []byte("tampered") }, []int{9}},
		{"foreign S under a known identity", func(_ []*PublicKey, _ [][]byte, s []*Signature) {
			s[4] = &Signature{V: s[4].V, S: s[5].S, R: s[4].R}
		}, []int{4}},
		{"swapped public key", func(p []*PublicKey, _ [][]byte, _ []*Signature) { p[2], p[3] = p[3], p[2] }, []int{2, 3}},
		{"R at infinity", func(_ []*PublicKey, _ [][]byte, s []*Signature) {
			s[13] = &Signature{V: s[13].V, S: s[13].S, R: bn254.G1Infinity()}
		}, []int{13}},
		{"A at infinity", func(_ []*PublicKey, _ [][]byte, s []*Signature) { s[6] = zeroA }, []int{6}},
		{"S at infinity", func(_ []*PublicKey, _ [][]byte, s []*Signature) {
			s[1] = &Signature{V: s[1].V, S: bn254.G2Infinity(), R: s[1].R}
		}, nil},
		{"every case at once", func(p []*PublicKey, m [][]byte, s []*Signature) {
			m[9] = []byte("tampered")
			s[4] = &Signature{V: s[4].V, S: s[5].S, R: s[4].R}
			p[2], p[3] = p[3], p[2]
			s[13] = &Signature{V: s[13].V, S: s[13].S, R: bn254.G1Infinity()}
			s[6] = zeroA
		}, []int{2, 3, 4, 6, 9, 13}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, m, s := slices.Clone(pks), slices.Clone(msgs), slices.Clone(sigs)
			tc.edit(p, m, s)
			got := NewVerifier(params).Batch(BatchOptions{}).VerifyMulti(p, m, s)

			// Per-index Verify: the lowest-index error that is not a
			// rejection, else the rejected indices.
			var want error
			var bad []int
			pairwise := NewVerifier(params)
			for i := range s {
				if err := pairwise.Verify(p[i], m[i], s[i]); errors.Is(err, ErrVerifyFailed) {
					bad = append(bad, i)
				} else if err != nil {
					want = err
					break
				}
			}
			if want == nil && bad != nil {
				want = &batchError{bad: bad}
			}
			for _, class := range []error{ErrVerifyFailed, ErrInvalidSignature, ErrInvalidKey} {
				if errors.Is(got, class) != errors.Is(want, class) {
					t.Fatalf("error class: batch %v, per-index %v", got, want)
				}
			}
			if (got == nil) != (want == nil) || !slices.Equal(BatchOffenders(got), BatchOffenders(want)) {
				t.Fatalf("batch %v, per-index %v", got, want)
			}
			if !slices.Equal(BatchOffenders(got), tc.bad) {
				t.Fatalf("offenders %v, want %v", BatchOffenders(got), tc.bad)
			}
		})
	}
}

// atProcs runs f at GOMAXPROCS procs, the width a window's prologue and
// settle fan out to, and restores the old setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestBatchWindowOpCounts pins what accepted pairs and line tables buy, in
// the idiom of bn254's TestMillerLoopMultiOpCounts, on a clean 64-signature
// window. Every index the prologue leaves is settled by its S-group: the
// group's first index by Verify, which pins its signer's pair, every later
// one by that pair, one fixed-base pass. On a fresh verifier each Verify is
// a first contact: two Miller loops that each step their G2 chain (65
// doubling, 23 addition steps), S's and m_ID's, one final exponentiation and
// the hash of Q_ID (one G2 mult), with no table built. On records that hold
// m_ID but no pair, each Verify runs S's plain loop: one Miller loop
// stepping S's chain. Once Verify has accepted each signer's (S, A), the
// prologue decides every index by its A and no pairing is left. Every Miller
// loop folds 88 lines and squares 65 times; the counts do not move with
// GOMAXPROCS. G1 mults: one fixed-base pass per signature. A table exists
// only in a pair Verify has seen twice: the window builds none.
func TestBatchWindowOpCounts(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, tc := range []struct {
			signers                              int
			warm                                 string // "", "unpinned" or "accepted"
			pairings, finalExps, stepped, g1, g2 uint64
		}{{16, "", 32, 16, 32, 64, 16}, {1, "", 2, 1, 2, 64, 1}, {16, "unpinned", 16, 16, 16, 64, 0}, {16, "accepted", 0, 0, 0, 64, 0}} {
			_, vf, pks, msgs, sigs := multiBatch(t, 64, tc.signers)
			switch tc.warm {
			case "unpinned":
				unpinned(t, vf, pks, msgs, sigs)
			case "accepted":
				for range 2 { // m_ID and the accepted pair, then the table
					for i := range tc.signers {
						if err := vf.Verify(pks[i], msgs[i], sigs[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			bv := vf.Batch(BatchOptions{})
			var d bn254.OpCounts
			atProcs(procs, func() {
				before := bn254.ReadOpCounts()
				var err error
				if tc.signers == 1 {
					err = bv.VerifySameSigner(pks[0], msgs, sigs)
				} else {
					err = bv.VerifyMulti(pks, msgs, sigs)
				}
				if err != nil {
					t.Fatal(err)
				}
				d = bn254.ReadOpCounts().Sub(before)
			})
			if d.Pairings != tc.pairings || d.FinalExps != tc.finalExps || d.MillerSquarings != 65*tc.pairings ||
				d.LineDoubles != 65*tc.stepped || d.LineAdds != 23*tc.stepped || d.SparseMuls != 88*tc.pairings ||
				d.G1ScalarMults != tc.g1 || d.G2ScalarMults != tc.g2 {
				t.Fatalf("GOMAXPROCS %d, 64 signatures / %d signers (warm %q): %d pairs, %d final exps, %d Miller squarings, %d doubling and %d addition steps, %d sparse products, %d G1 and %d G2 mults; want %d, %d, %d, %d, %d, %d, %d, %d",
					procs, tc.signers, tc.warm, d.Pairings, d.FinalExps, d.MillerSquarings, d.LineDoubles, d.LineAdds, d.SparseMuls, d.G1ScalarMults, d.G2ScalarMults,
					tc.pairings, tc.finalExps, 65*tc.pairings, 65*tc.stepped, 23*tc.stepped, 88*tc.pairings, tc.g1, tc.g2)
			}
			want := 0
			if tc.warm == "accepted" {
				want = tc.signers
			}
			if n := tables(vf, pks); n != want {
				t.Fatalf("GOMAXPROCS %d, 64 signatures / %d signers (warm %q): %d line tables cached, want %d", procs, tc.signers, tc.warm, n, want)
			}
		}
	}
}

// TestBatchRepeatWindowPaysNoPairing: a consumer that only batches pins
// its signers' pairs in its first window, through the Verify calls that
// settle it, so the next window of the same signers is decided by the
// prologue alone, at GOMAXPROCS 1 and 2: no Miller loop, no final
// exponentiation, one fixed-base pass per signature.
func TestBatchRepeatWindowPaysNoPairing(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 64, 16)
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			bv := NewVerifier(kgc.Params()).Batch(BatchOptions{})
			if err := bv.VerifyMulti(pks, msgs, sigs); err != nil {
				t.Fatal(err)
			}
			before := bn254.ReadOpCounts()
			if err := bv.VerifyMulti(pks, msgs, sigs); err != nil {
				t.Fatal(err)
			}
			d := bn254.ReadOpCounts().Sub(before)
			if d.Pairings != 0 || d.MillerSquarings != 0 || d.FinalExps != 0 || d.G1ScalarMults != 64 {
				t.Fatalf("GOMAXPROCS %d: the second window paid %d Miller pairs, %d Miller squarings, %d final exps and %d G1 mults; want 0, 0, 0 and 64",
					procs, d.Pairings, d.MillerSquarings, d.FinalExps, d.G1ScalarMults)
			}
		})
	}
}

// TestBatchAcceptBlocks cuts windows of 1, 31, 32, 33, 64, 65 and 100
// pinned indices into accept blocks at GOMAXPROCS 1, 2 and 8, clean and
// with a forgery (the signer's signature under another message: its S
// pinned, its A not) at both ends of every block. The offenders must be
// exactly those per-index Verify rejects, and every index must cost one
// fixed-base pass and no pairing.
func TestBatchAcceptBlocks(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 100, 16)
	for i := range 16 {
		if err := vf.Verify(pks[i], msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	oracle, forged := NewVerifier(vf.params), []byte("forged")
	rejects := make([]bool, len(sigs)) // Verify's verdict on index i under forged
	for i := range sigs {
		rejects[i] = oracle.Verify(pks[i], forged, sigs[i]) != nil
	}
	for _, n := range []int{1, 31, 32, 33, 64, 65, 100} {
		for _, procs := range []int{1, 2, 8} {
			blocks := max((n+bn254.BaseMultAddBlock-1)/bn254.BaseMultAddBlock, min(n, procs))
			for _, edges := range []bool{false, true} {
				bad, want := slices.Clone(msgs[:n]), []int{}
				for b := 0; edges && b < blocks; b++ {
					bad[b*n/blocks], bad[(b+1)*n/blocks-1] = forged, forged
				}
				for i := range n {
					if bytes.Equal(bad[i], forged) && rejects[i] {
						want = append(want, i)
					}
				}
				atProcs(procs, func() {
					before := bn254.ReadOpCounts()
					err := vf.Batch(BatchOptions{}).VerifyMulti(pks[:n], bad, sigs[:n])
					d := bn254.ReadOpCounts().Sub(before)
					if got := BatchOffenders(err); !slices.Equal(got, want) || (err == nil) != (len(want) == 0) {
						t.Fatalf("%d pinned indices at GOMAXPROCS %d (%d blocks): offenders %v (%v), want %v", n, procs, blocks, got, err, want)
					}
					if d.G1ScalarMults != uint64(n) || d.Pairings != 0 {
						t.Fatalf("%d pinned indices at GOMAXPROCS %d: %d G1 mults and %d pairings, want %d and 0", n, procs, d.G1ScalarMults, d.Pairings, n)
					}
				})
			}
		}
	}
}

// TestBatchOnlyConsumerBuildsNoTables: a consumer that only batches never
// builds a line table, as the prologue decides every signature under a
// pinned S and settle's Verify meets only S values with no pair. On a fresh
// verifier a clean 64/16 window steps 32 G2 chains (16 first contacts, each
// S's loop and m_ID's), and its repeat steps none. The same identities
// under replaced keys step 16 (each identity known, its pinned S another:
// 16 plain loops), and their repeat steps none. No record holds a table
// after any of the four.
func TestBatchOnlyConsumerBuildsNoTables(t *testing.T) {
	kgc, vf, pks, msgs, sigs := multiBatch(t, 64, 16)
	rng := fixedRand(96)
	rpks, rsigs := make([]*PublicKey, 64), make([]*Signature, 64)
	for j := range 16 {
		sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(pks[j].ID), rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := j; i < 64; i += 16 {
			rpks[i] = sk.Public()
			if rsigs[i], err = Sign(kgc.Params(), sk, msgs[i], rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, tc := range []struct {
		pks     []*PublicKey
		sigs    []*Signature
		stepped uint64
	}{{pks, sigs, 32}, {pks, sigs, 0}, {rpks, rsigs, 16}, {rpks, rsigs, 0}} {
		before := bn254.ReadOpCounts()
		if err := vf.Batch(BatchOptions{}).VerifyMulti(tc.pks, msgs, tc.sigs); err != nil {
			t.Fatal(err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.LineDoubles != 65*tc.stepped || d.LineAdds != 23*tc.stepped {
			t.Fatalf("window %d: %d doubling and %d addition steps, want %d and %d", k+1, d.LineDoubles, d.LineAdds, 65*tc.stepped, 23*tc.stepped)
		}
		if n := tables(vf, pks); n != 0 {
			t.Fatalf("window %d: %d records hold a line table, want 0", k+1, n)
		}
	}
}

// TestBatchFanOutInvariance runs a clean, a forged and a first window (a
// fresh verifier) at GOMAXPROCS 1, 2 and 4: the offender set and the
// window's op counts must be equal at every width. A window pins its
// signers' pairs, so every run gets a fresh verifier, the clean and forged
// ones with records that hold m_ID but no pair.
func TestBatchFanOutInvariance(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 64, 16)
	forged := slices.Clone(msgs)
	forged[37] = []byte("forged")
	params := kgc.Params()
	mOnly := func() *Verifier {
		vf := NewVerifier(params)
		unpinned(t, vf, pks, msgs, sigs)
		return vf
	}
	for _, tc := range []struct {
		name    string
		vf      func() *Verifier
		msgs    [][]byte
		wantBad []int
	}{
		{"clean", mOnly, msgs, nil},
		{"forged", mOnly, forged, []int{37}},
		{"first", func() *Verifier { return NewVerifier(params) }, msgs, nil},
	} {
		var ref bn254.OpCounts
		for _, procs := range []int{1, 2, 4} {
			atProcs(procs, func() {
				bv := tc.vf().Batch(BatchOptions{})
				before := bn254.ReadOpCounts()
				err := bv.VerifyMulti(pks, tc.msgs, sigs)
				d := bn254.ReadOpCounts().Sub(before)
				if got := BatchOffenders(err); !slices.Equal(got, tc.wantBad) || (err == nil) != (tc.wantBad == nil) {
					t.Fatalf("%s: GOMAXPROCS %d: offenders %v (%v), want %v", tc.name, procs, got, err, tc.wantBad)
				}
				if procs == 1 {
					ref = d
				} else if d != ref {
					t.Fatalf("%s: GOMAXPROCS %d costs %+v, GOMAXPROCS 1 %+v", tc.name, procs, d, ref)
				}
			})
		}
	}
}

// TestBatchTablesMatchVerify runs windows that mix accepted pairs with their
// tables, a forged S under a known identity, a forgery carrying its
// signer's real S (a valid signature over another message) and a replaced
// key (a new S for a known identity), at GOMAXPROCS 1, 2 and 8. Signers 2c
// and 2c+1 alternate over indices 8c to 8c+7. tab-0 to tab-2 start with
// m_ID and an accepted pair holding its table, tab-3 to tab-6 with m_ID
// only, and tab-7 is unknown (no record) until the first window meets it.
// Offenders must be the indices a fresh verifier's Verify rejects. After
// each window every accepted pair must have been there before it or carry
// the S and the A of a valid signature under its identity in the window,
// with no table — a forged S displaces nothing, and the window builds no
// table — and an identity known before the window whose valid signatures in
// it share one S, not the S of its pair before, must hold that S's pair.
func TestBatchTablesMatchVerify(t *testing.T) {
	rng := fixedRand(97)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	keyPair := func(id string) *PrivateKey {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	sign := func(sk *PrivateKey, msg []byte) *Signature {
		sig, err := Sign(params, sk, msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	const n = 32
	sks := make([]*PrivateKey, 8)
	for j := range sks {
		sks[j] = keyPair(fmt.Sprintf("tab-%d", j))
	}
	replaced := keyPair("tab-6")
	forgedS := new(bn254.G2).ScalarMult(bn254.G2Generator(), big.NewInt(1234567))
	pks, msgs, sigs := make([]*PublicKey, n), make([][]byte, n), make([]*Signature, n)
	for i := range n {
		sk := sks[i/8*2+i%2]
		pks[i], msgs[i] = sk.Public(), []byte{byte(i)}
		sigs[i] = sign(sk, msgs[i])
	}
	windows := []struct {
		name string
		edit func(p []*PublicKey, m [][]byte, s []*Signature)
		bad  []int
		p    []*PublicKey
		m    [][]byte
		s    []*Signature
	}{
		{name: "forgeries and a replaced key", edit: func(p []*PublicKey, m [][]byte, s []*Signature) {
			s[10] = &Signature{V: s[10].V, S: forgedS, R: s[10].R}  // tab-2, whose table is cached
			s[20] = s[22]                                           // tab-4's real S over another message
			p[24], s[24] = replaced.Public(), sign(replaced, m[24]) // tab-6's new S
		}, bad: []int{10, 20}},
		{name: "clean", edit: func([]*PublicKey, [][]byte, []*Signature) {}},
		{name: "a replaced key beside a forgery", edit: func(p []*PublicKey, m [][]byte, s []*Signature) {
			p[26], s[26] = replaced.Public(), sign(replaced, m[26])
			s[29] = s[31]
		}, bad: []int{29}},
	}
	for k := range windows {
		w := &windows[k]
		w.p, w.m, w.s = slices.Clone(pks), slices.Clone(msgs), slices.Clone(sigs)
		w.edit(w.p, w.m, w.s)
		fresh := NewVerifier(params)
		var want []int
		for i := range w.s {
			if fresh.Verify(w.p[i], w.m[i], w.s[i]) != nil {
				want = append(want, i)
			}
		}
		if !slices.Equal(want, w.bad) {
			t.Fatalf("%s: a fresh Verify rejects %v, planted %v", w.name, want, w.bad)
		}
	}

	for _, procs := range []int{1, 2, 8} {
		vf := NewVerifier(params)
		for _, sk := range sks[:3] {
			sig := sign(sk, msgs[0])
			for range 2 { // the pair, then its table
				if err := vf.Verify(sk.Public(), msgs[0], sig); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, sk := range sks[3:7] {
			vf.rhs(nil, sk.Public().ID)
		}
		for _, w := range windows {
			known, oks := map[string]bool{}, map[string]*accepted{}
			for _, sk := range sks {
				id := sk.Public().ID
				var r *signer
				if r, known[id] = vf.signers.Get(id); known[id] {
					oks[id] = r.ok.Load()
				}
			}
			var err error
			atProcs(procs, func() { err = vf.Batch(BatchOptions{}).VerifyMulti(w.p, w.m, w.s) })
			if got := BatchOffenders(err); !slices.Equal(got, w.bad) || (err == nil) != (w.bad == nil) {
				t.Fatalf("GOMAXPROCS %d %s: offenders %v (%v), want %v", procs, w.name, got, err, w.bad)
			}
			valid := map[string][]*bn254.G2{} // the distinct S of each identity's valid signatures
			for i := range w.s {
				if id := w.p[i].ID; !slices.Contains(w.bad, i) && !slices.ContainsFunc(valid[id], w.s[i].S.Equal) {
					valid[id] = append(valid[id], w.s[i].S)
				}
			}
			for _, sk := range sks {
				id := sk.Public().ID
				r, found := vf.signers.Get(id)
				if !found {
					continue
				}
				pair := r.ok.Load()
				if pair != oks[id] && (pair.lines != nil || !ofValid(params, w.p, w.m, w.s, w.bad, id, &pair.s, &pair.a)) {
					t.Fatalf("GOMAXPROCS %d %s: %s holds a new accepted pair with a table or of no valid signature in the window", procs, w.name, id)
				}
				if s := valid[id]; known[id] && len(s) == 1 && !(oks[id] != nil && oks[id].s.Equal(s[0])) && !(pair != nil && pair.s.Equal(s[0])) {
					t.Fatalf("GOMAXPROCS %d %s: %s's valid S has no accepted pair", procs, w.name, id)
				}
			}
		}
	}
}

// TestBatchFailingChunkCost pins what a window with forgeries costs on a
// 64-signature/16-signer window, signer i mod 16 at index i, so S-group g is
// {g, g+16, g+32, g+48}, over records that hold m_ID but no accepted pair,
// so every index reaches settle. settle walks each S-group in index order:
// Verify up to and including its first valid index (one final exp and one
// Miller loop each: m_ID is cached), which pins the signer's
// pair, then one fixed-base pass per later index. A group pays one Verify
// more when its first index is forged: {0} costs 17 final exps and 17
// pairs, a lone forgery anywhere else 16 and 16, and 2, 4 or 8 offenders
// with one or two of them first in their group 17/17 or 18/18. Each case
// gets a fresh verifier, as settle pins pairs. Once Verify has accepted
// every signer's (S, A), a tampered message carries its signer's accepted S
// with another A, so the prologue rejects it by that A alone: no index
// reaches settle, 0 final exps and 0 pairs. The offenders are the same at
// GOMAXPROCS 1, 2 and 8.
func TestBatchFailingChunkCost(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 64, 16)
	params := kgc.Params()
	mOnly := func() *Verifier {
		vf := NewVerifier(params)
		unpinned(t, vf, pks, msgs, sigs)
		return vf
	}
	known := NewVerifier(params)
	for i := 0; i < 16; i++ {
		if err := known.Verify(pks[i], msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	tamper := func(at ...int) [][]byte {
		bad := slices.Clone(msgs)
		for _, i := range at {
			bad[i] = []byte{0xff, byte(i)}
		}
		return bad
	}
	for _, tc := range []struct {
		known            bool
		at               []int
		finalExps, pairs uint64
	}{
		{false, []int{0}, 17, 17}, {false, []int{31}, 16, 16}, {false, []int{32}, 16, 16}, {false, []int{37}, 16, 16},
		{false, []int{63}, 16, 16}, {false, []int{3, 40}, 17, 17}, {false, []int{40, 56}, 16, 16},
		{false, []int{3, 20, 40, 57}, 17, 17}, {false, []int{3, 12, 20, 29, 40, 46, 57, 63}, 18, 18},
		{true, []int{0}, 0, 0}, {true, []int{37}, 0, 0}, {true, []int{3, 40}, 0, 0},
	} {
		vf := known
		if !tc.known {
			vf = mOnly()
		}
		before := bn254.ReadOpCounts()
		err := vf.Batch(BatchOptions{}).VerifyMulti(pks, tamper(tc.at...), sigs)
		d := bn254.ReadOpCounts().Sub(before)
		if !slices.Equal(BatchOffenders(err), tc.at) {
			t.Fatalf("forgeries at %v (known keys %v): %v", tc.at, tc.known, err)
		}
		if d.FinalExps != tc.finalExps || d.Pairings != tc.pairs {
			t.Fatalf("forgeries at %v (known keys %v): %d final exps, %d Miller pairs; want %d, %d", tc.at, tc.known, d.FinalExps, d.Pairings, tc.finalExps, tc.pairs)
		}
	}
	all := make([]int, 16)
	for i := range all {
		all[i] = 16 + i
	}
	// Two adjacent offenders, two far apart, one in each half, and a run of
	// sixteen forged throughout.
	for _, want := range [][]int{{40, 41}, {3, 40}, {5, 60}, all} {
		for _, procs := range []int{1, 2, 8} {
			var err error
			atProcs(procs, func() { err = mOnly().Batch(BatchOptions{}).VerifyMulti(pks, tamper(want...), sigs) })
			if got := BatchOffenders(err); !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: offenders %v (%v), want %v", procs, got, err, want)
			}
		}
	}
}

// TestBatchOffSubgroupS: a window whose index 5 carries an on-curve S off
// G2 names exactly that index, whether its identity is a first contact or
// holds an accepted pair with its table for its honest S (the settling
// Verify's plain Miller loop finds the S either way), at GOMAXPROCS 1 and
// 2; no record accepts the S or builds a table for it.
func TestBatchOffSubgroupS(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 16, 4)
	honest := sigs[1]
	sigs = slices.Clone(sigs)
	sigs[5] = &Signature{V: sigs[5].V, S: offSubgroupG2(t), R: sigs[5].R}
	for _, pinned := range []bool{false, true} {
		for _, procs := range []int{1, 2} {
			vf := NewVerifier(kgc.Params())
			for i := 0; pinned && i < 2; i++ { // the pair, then its table
				if err := vf.Verify(pks[1], msgs[1], honest); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			atProcs(procs, func() { err = vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs) })
			if got := BatchOffenders(err); !slices.Equal(got, []int{5}) {
				t.Fatalf("pinned %v, GOMAXPROCS %d: offenders %v (%v), want [5]", pinned, procs, got, err)
			}
			r, _ := vf.signers.Get(pks[5].ID)
			if ok := r.ok.Load(); ok == nil || ok.s.Equal(sigs[5].S) || (ok.lines != nil) != pinned {
				t.Fatalf("pinned %v, GOMAXPROCS %d: the record took the S off G2 or a table changed", pinned, procs)
			}
		}
	}
}

// TestBatchAcceptedRace: two valid key pairs of one identity take turns
// through Verify on two goroutines, so the identity's accepted pair flips
// between their (S, A), while two more goroutines run windows over
// signatures of both keys and of a second identity. Four are forged under
// the flipping identity, so the accept round rejects each while its key's
// pair is the accepted one and settle decides it otherwise: tampered
// messages under each key (4, 13 under the second, 9 under the first) and
// the first key's S with the second's V and R (21). Whichever pair a window
// reads, its offenders must be the indices per-index Verify rejects.
func TestBatchAcceptedRace(t *testing.T) {
	rng := fixedRand(99)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	var keys []*PrivateKey
	for _, id := range []string{"twice@manet", "twice@manet", "other@manet"} {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, sk)
	}
	const n = 24
	pks, msgs, sigs := make([]*PublicKey, n), make([][]byte, n), make([]*Signature, n)
	for i := range n {
		sk := keys[i%len(keys)]
		pks[i], msgs[i] = sk.Public(), []byte{byte(i)}
		if sigs[i], err = Sign(params, sk, msgs[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	msgs[4], msgs[9], msgs[13] = []byte("tampered-4"), []byte("tampered-9"), []byte("tampered-13")
	sigs[21] = &Signature{V: sigs[22].V, S: sigs[21].S, R: sigs[22].R}
	var want []int
	for i, fresh := 0, NewVerifier(params); i < n; i++ {
		if fresh.Verify(pks[i], msgs[i], sigs[i]) != nil {
			want = append(want, i)
		}
	}
	if !slices.Equal(want, []int{4, 9, 13, 21}) {
		t.Fatalf("a fresh Verify rejects %v, planted [4 9 13 21]", want)
	}

	vf := NewVerifier(params)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 8 {
				if g < 2 { // key g's honest signature, index g
					if err := vf.Verify(pks[g], msgs[g], sigs[g]); err != nil {
						t.Error(err)
					}
					continue
				}
				err := vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs)
				if got := BatchOffenders(err); !slices.Equal(got, want) {
					t.Errorf("offenders %v (%v), want %v", got, err, want)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestBatchWindowAllocs pins what a window allocates. A clean 64/16 window
// that the prologue decides entirely, over records holding the pairs
// Verify accepted, makes 3 allocations at GOMAXPROCS 1: the window and its
// two per-index slices (k, at); settle, with no index to settle, runs
// inline and allocates nothing. At GOMAXPROCS 2 the prologue's fan-out adds
// its shared state and its worker's closure: 5. A window that only batched
// before is in the same state, as its first window pinned every pair. A
// window settled by Verify, over records that hold m_ID but no pair, adds
// its S-groups (53: 16 index lists growing to 4 entries, the group list to
// 16) and 2 for each of its 16 Verify calls (the Miller value and the
// accepted pair it stores): 88 at GOMAXPROCS 1, and 92
// at GOMAXPROCS 2, where settle's fan-out adds 2 more. Nothing on the path
// draws on a sync.Pool, so the counts are exact under -race too.
func TestBatchWindowAllocs(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 64, 16)
	if err := vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs); err != nil {
		t.Fatal(err)
	}
	known := NewVerifier(vf.params)
	for i := range 16 {
		if err := known.Verify(pks[i], msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	mOnly := NewVerifier(vf.params)
	unpinned(t, mOnly, pks, msgs, sigs)
	unpin := func() {
		for _, pk := range pks[:16] {
			r, _ := mOnly.signers.Get(pk.ID)
			r.ok.Store(nil)
		}
	}
	for _, tc := range []struct {
		name   string
		vf     *Verifier
		before func()
		procs  int
		allocs uint64
	}{
		{"batched before", vf, func() {}, 1, 3}, {"batched before", vf, func() {}, 2, 5},
		{"accepted by Verify", known, func() {}, 1, 3}, {"accepted by Verify", known, func() {}, 2, 5},
		{"settled by Verify", mOnly, unpin, 1, 88}, {"settled by Verify", mOnly, unpin, 2, 92},
	} {
		bv := tc.vf.Batch(BatchOptions{})
		if allocs := allocsAt(tc.procs, 20, func() {
			tc.before()
			if err := bv.VerifyMulti(pks, msgs, sigs); err != nil {
				t.Fatal(err)
			}
		}); allocs != tc.allocs {
			t.Errorf("clean 64/16 window (%s) at GOMAXPROCS %d: %v allocations, want %v", tc.name, tc.procs, allocs, tc.allocs)
		}
	}
}

// FuzzBatchVsVerify is the batch plane's differential oracle: a window the
// fuzz bytes draw — n = 1–80 signatures over k = 1–20 signers (order[i]
// names index i's signer, i mod k past its end; the byte before flags is
// unused and keeps the corpus layout), warm or cold caches (flags bit 0: every signer's m_ID, accepted pair and
// table, from its honest key or, with bit 2, from its replaced one, so the
// accepted S and the window's S disagree either way), GOMAXPROCS 1 or 2
// (bit 1) — with up to four planted faults, each three bytes (kind, index,
// aux): a tampered message; an S forged under a known identity, aux naming
// one of five forged points, the last on the curve but off G2, so faults
// can share an S-group; the identity's
// key replaced, the signature re-signed under it for odd aux (valid) or kept
// (invalid); or the signature filed under another identity. The offenders
// must be exactly the indices a fresh Verifier's Verify rejects. An
// accepted pair the window stored (settle's Verify calls do) must carry the
// S, and the A recomputed by math/big, of a valid signature under its
// identity in the window, and no line table: a forged S displaces nothing,
// and the window builds no table.
func FuzzBatchVsVerify(f *testing.F) {
	rng := fixedRand(98)
	kgc, err := Setup(rng)
	if err != nil {
		f.Fatal(err)
	}
	params := kgc.Params()
	var sks, replaced []*PrivateKey
	for j := range 20 {
		ppk := kgc.ExtractPartialPrivateKey(fmt.Sprintf("fz-%d", j))
		for _, to := range []*[]*PrivateKey{&sks, &replaced} {
			sk, err := GenerateKeyPair(params, ppk, rng)
			if err != nil {
				f.Fatal(err)
			}
			*to = append(*to, sk)
		}
	}
	type signed struct {
		sk  *PrivateKey
		msg string
	}
	memo := map[signed]*Signature{}
	sign := func(t *testing.T, sk *PrivateKey, msg []byte) *Signature {
		key := signed{sk, string(msg)}
		if memo[key] == nil {
			sig, err := Sign(params, sk, msg, fixedRand(int64(len(msg))<<8|int64(msg[0])))
			if err != nil {
				t.Fatal(err)
			}
			memo[key] = sig
		}
		return memo[key]
	}
	var forged [5]*bn254.G2
	for j := range 4 {
		forged[j] = new(bn254.G2).ScalarMult(bn254.G2Generator(), big.NewInt(int64(1000+j)))
	}
	forged[4] = offSubgroupG2(f)

	f.Fuzz(func(t *testing.T, n, signers, _, flags uint8, faults, order []byte) {
		nn, k := 1+int(n)%80, 1+int(signers)%20
		who := make([]int, nn)
		p, m, s := make([]*PublicKey, nn), make([][]byte, nn), make([]*Signature, nn)
		for i := range nn {
			if who[i] = i % k; i < len(order) {
				who[i] = int(order[i]) % k
			}
			p[i], m[i] = sks[who[i]].Public(), []byte{byte(i)}
			s[i] = sign(t, sks[who[i]], m[i])
		}
		for at := 0; at+3 <= min(len(faults), 12); at += 3 {
			kind, i, aux := faults[at]%4, int(faults[at+1])%nn, int(faults[at+2])
			switch kind {
			case 0:
				m[i] = []byte{0xfe, byte(i), byte(aux)}
			case 1:
				s[i] = &Signature{V: s[i].V, S: forged[aux%len(forged)], R: s[i].R}
			case 2:
				if p[i] = replaced[who[i]].Public(); aux%2 == 1 {
					s[i] = sign(t, replaced[who[i]], m[i])
				}
			case 3:
				p[i] = sks[(who[i]+1+aux%19)%20].Public()
			}
		}
		fresh := NewVerifier(params)
		var want []int
		for i := range nn {
			if fresh.Verify(p[i], m[i], s[i]) != nil {
				want = append(want, i)
			}
		}

		vf := NewVerifier(params)
		if flags&1 != 0 { // m_ID and the accepted pair, then the table
			warm := sks
			if flags&4 != 0 {
				warm = replaced
			}
			for _, j := range who {
				for range 2 {
					if err := vf.Verify(warm[j].Public(), []byte("warm"), sign(t, warm[j], []byte("warm"))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		oks := map[string]*accepted{}
		for _, sk := range sks {
			id := sk.Public().ID
			if r, ok := vf.signers.Get(id); ok {
				oks[id] = r.ok.Load()
			}
		}
		var err error
		atProcs(1+int(flags>>1&1), func() { err = vf.Batch(BatchOptions{}).VerifyMulti(p, m, s) })
		if got := BatchOffenders(err); !slices.Equal(got, want) || (err == nil) != (want == nil) {
			t.Fatalf("%d signatures / %d signers: offenders %v (%v), a fresh Verify rejects %v", nn, k, got, err, want)
		}

		for _, sk := range sks {
			id := sk.Public().ID
			if r, ok := vf.signers.Get(id); ok {
				if pair := r.ok.Load(); pair != oks[id] && (pair.lines != nil || !ofValid(params, p, m, s, want, id, &pair.s, &pair.a)) {
					t.Fatalf("%s holds a new accepted pair with a table or of no valid signature in the window", id)
				}
			}
		}
	})
}

// commitment is a signature's A = (V/h)·P - R by the variable-base ladder
// over math/big, no kernel shared with the fixed-base pass Verify and the
// batch run.
func commitment(params *Params, pk *PublicKey, msg []byte, sig *Signature) *bn254.G1 {
	h := params.hashH2(msg, sig.R, pk.PID)
	k := new(big.Int).ModInverse(h.BigInt(), bn254.Order)
	a := new(bn254.G1).ScalarMult(bn254.G1Generator(), k.Mul(k, sig.V.BigInt()))
	return a.Add(a, new(bn254.G1).Neg(sig.R))
}

// ofValid reports whether an index of the window that is not in bad, under
// identity id, carries S = s and, unless a is nil, A = a (by commitment).
func ofValid(params *Params, pks []*PublicKey, msgs [][]byte, sigs []*Signature, bad []int, id string, s *bn254.G2, a *bn254.G1) bool {
	for i := range sigs {
		if pks[i].ID == id && !slices.Contains(bad, i) && sigs[i].S.Equal(s) && (a == nil || a.Equal(commitment(params, pks[i], msgs[i], sigs[i]))) {
			return true
		}
	}
	return false
}

// allocsAt is testing.AllocsPerRun at GOMAXPROCS procs (AllocsPerRun runs
// at 1): heap allocations per call of f, averaged over runs calls. The
// runtime allocates too at more than one P, when a new goroutine finds no
// free goroutine record on its P, and that only ever adds: the least of
// five such averages is what f itself allocates.
func allocsAt(procs, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	least := uint64(math.MaxUint64)
	for range 5 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for range runs {
			f()
		}
		runtime.ReadMemStats(&ms)
		least = min(least, (ms.Mallocs-before)/uint64(runs))
	}
	return least
}

// tampered is a window of n signatures from k signers over a fresh
// verifier, the messages at bad tampered: no record exists, so every index
// reaches settle.
func tampered(t *testing.T, n, k int, bad ...int) (*Verifier, []*PublicKey, [][]byte, []*Signature) {
	t.Helper()
	_, vf, pks, msgs, sigs := multiBatch(t, n, k)
	for _, i := range bad {
		msgs[i] = []byte{0xfe, byte(i)}
	}
	return vf, pks, msgs, sigs
}

// TestBatchRejectLocatesOffenders: 100 signatures from 10 signers, four of
// them tampered, on a fresh verifier at one P. settle runs Verify on each
// of the 10 S-groups' first index, once more for index 3, which is first in
// its group, and decides 17, 42 and 99 by the pairs those calls pinned: 11
// final exponentiations.
func TestBatchRejectLocatesOffenders(t *testing.T) {
	atProcs(1, func() {
		vf, pks, msgs, sigs := tampered(t, 100, 10, 3, 17, 42, 99)
		before := bn254.ReadOpCounts()
		err := vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs)
		if got, want := BatchOffenders(err), []int{3, 17, 42, 99}; !slices.Equal(got, want) {
			t.Fatalf("offenders %v (%v), want %v", got, err, want)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != 11 {
			t.Fatalf("%d final exps, want 11", d.FinalExps)
		}
	})
}

// TestBatchRejectOverResidual: settle judges only the indices the prologue
// left. With the odd signers' pairs pinned, their 50 indices, forged or
// not, are decided by their A with no pairing, and only the even signers'
// 50 reach settle: one first-contact Verify per signer, 5 final
// exponentiations, at GOMAXPROCS 1 and 2.
func TestBatchRejectOverResidual(t *testing.T) {
	for _, procs := range []int{1, 2} {
		vf, pks, msgs, sigs := tampered(t, 100, 10, 3, 42, 77, 99)
		for i := 11; i < 20; i += 2 {
			if err := vf.Verify(pks[i], msgs[i], sigs[i]); err != nil {
				t.Fatal(err)
			}
		}
		atProcs(procs, func() {
			before := bn254.ReadOpCounts()
			err := vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs)
			if got, want := BatchOffenders(err), []int{3, 42, 77, 99}; !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: offenders %v (%v), want %v", procs, got, err, want)
			}
			if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != 5 {
				t.Fatalf("GOMAXPROCS %d: %d final exps, want 5", procs, d.FinalExps)
			}
		})
	}
}

// TestBatchRejectAllGood: a clean window on a fresh verifier is one
// first-contact Verify per signer, 10 final exponentiations for 100
// signatures from 10 signers, and leaves every signer's pair pinned; an
// empty window costs none.
func TestBatchRejectAllGood(t *testing.T) {
	vf, pks, msgs, sigs := tampered(t, 100, 10)
	for _, tc := range []struct {
		n         int
		finalExps uint64
	}{{100, 10}, {0, 0}} {
		before := bn254.ReadOpCounts()
		if err := vf.Batch(BatchOptions{}).VerifyMulti(pks[:tc.n], msgs[:tc.n], sigs[:tc.n]); err != nil {
			t.Fatalf("clean batch of %d: %v", tc.n, err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != tc.finalExps {
			t.Fatalf("clean batch of %d: %d final exps, want %d", tc.n, d.FinalExps, tc.finalExps)
		}
	}
	for i, pk := range pks {
		if r, _ := vf.signers.Get(pk.ID); r.ok.Load() == nil || !r.ok.Load().s.Equal(sigs[i].S) {
			t.Fatalf("%s holds no accepted pair under its S after a clean window", pk.ID)
		}
	}
}

func TestBatchRejectWorkerInvariance(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		vf, pks, msgs, sigs := tampered(t, 65, 5, 0, 31, 32, 63, 64)
		var err error
		atProcs(procs, func() { err = vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs) })
		if got, want := BatchOffenders(err), []int{0, 31, 32, 63, 64}; !slices.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: offenders %v (%v), want %v", procs, got, err, want)
		}
	}
}

// TestBatchRejectSettlesByVerify: a window of signers a (even indices) and
// b (odd) on a fresh verifier, index 0 tampered and index 5 carrying a
// forged S, is three S-groups. a's runs Verify on 0 (rejected, a first
// contact) and 2 (accepted, pinning a's pair), then decides 4 and 6 by that
// pair; b's runs Verify on 1 alone; the forged S's, on 5, which b's pair
// cannot decide. Four Verify calls are 4 final exponentiations, and each
// record holds the (S, A) of its signer's first valid index.
func TestBatchRejectSettlesByVerify(t *testing.T) {
	atProcs(1, func() {
		vf, pks, msgs, sigs := tampered(t, 8, 2, 0)
		sigs[5] = &Signature{V: sigs[5].V, S: new(bn254.G2).ScalarMult(bn254.G2Generator(), big.NewInt(55)), R: sigs[5].R}
		before := bn254.ReadOpCounts()
		err := vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs)
		if got := BatchOffenders(err); !slices.Equal(got, []int{0, 5}) {
			t.Fatalf("offenders %v (%v), want [0 5]", got, err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != 4 {
			t.Fatalf("%d final exps, want 4", d.FinalExps)
		}
		for _, i := range []int{2, 1} {
			r, _ := vf.signers.Get(pks[i].ID)
			if ok := r.ok.Load(); ok == nil || !ok.s.Equal(sigs[i].S) || !ok.a.Equal(commitment(vf.params, pks[i], msgs[i], sigs[i])) {
				t.Fatalf("%s does not hold the pair of index %d", pks[i].ID, i)
			}
		}
	})
}

// panicking is a window of 16 signatures from 4 signers over a fresh
// verifier whose H2 oracle panics from its 17th call on, and that call
// count. The prologue hashes each index once, so every Verify settle runs
// panics before any pairing.
func panicking(t *testing.T) (*BatchVerifier, *atomic.Int64, []*PublicKey, [][]byte, []*Signature) {
	t.Helper()
	_, vf, pks, msgs, sigs := multiBatch(t, 16, 4)
	params, calls := *vf.params, new(atomic.Int64)
	params.h2Override = func(msg []byte, r, pid *bn254.G1) fr.Element {
		if calls.Add(1) > int64(len(sigs)) {
			panic("H2 oracle down")
		}
		return vf.params.hashH2(msg, r, pid)
	}
	return NewVerifier(&params).Batch(BatchOptions{}), calls, pks, msgs, sigs
}

// recovered runs f and returns the value it panicked with, nil if none.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestBatchRejectPanicPropagates: at one P settle runs its S-groups inline,
// so the first settling Verify's panic reaches VerifyMulti's caller as it
// is, and no other group runs.
func TestBatchRejectPanicPropagates(t *testing.T) {
	bv, calls, pks, msgs, sigs := panicking(t)
	atProcs(1, func() {
		if v := recovered(func() { _ = bv.VerifyMulti(pks, msgs, sigs) }); v != "H2 oracle down" {
			t.Fatalf("VerifyMulti's caller recovered %v, want the settling Verify's panic", v)
		}
	})
	if n := calls.Load(); n != 17 {
		t.Fatalf("%d H2 calls, want 16 in the prologue and one panicking Verify", n)
	}
}

// TestBatchSettlePanicOnFanOutWorker: at GOMAXPROCS 2 settle fans its four
// S-groups out to the caller and one spawned worker. Each claims a group,
// and its Verify panics, which stops it, so exactly two Verify calls run
// and one of them panics on the spawned goroutine. The panic is re-raised
// on VerifyMulti's caller instead of ending the process.
func TestBatchSettlePanicOnFanOutWorker(t *testing.T) {
	bv, calls, pks, msgs, sigs := panicking(t)
	atProcs(2, func() {
		if v := recovered(func() { _ = bv.VerifyMulti(pks, msgs, sigs) }); v != "H2 oracle down" {
			t.Fatalf("VerifyMulti's caller recovered %v, want a settling Verify's panic", v)
		}
	})
	if n := calls.Load(); n != 18 {
		t.Fatalf("%d H2 calls, want 16 in the prologue and one panicking Verify on each of two workers", n)
	}
}

func TestBatchErrorUnwrap(t *testing.T) {
	err := error(&batchError{bad: []int{1, 2}})
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatal("a batch rejection must unwrap to ErrVerifyFailed")
	}
	if got := BatchOffenders(err); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("BatchOffenders = %v, want [1 2]", got)
	}
	if BatchOffenders(nil) != nil || BatchOffenders(ErrBatchMismatch) != nil {
		t.Fatal("BatchOffenders must be nil without an offender list")
	}
}

// TestZeroChallengeHashRejected pins the zero-challenge guard: a challenge
// hash h ≡ 0 (mod r) has no inverse (fr.Inverse reports ok = false), and
// every verification path must reject it with ErrInvalidSignature.
func TestZeroChallengeHashRejected(t *testing.T) {
	kgc, sk, _ := newTestSystem(t, "zero-h")
	rng := fixedRand(92)
	msg := []byte("m")
	sig, err := Sign(kgc.Params(), sk, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	params.h2Override = func([]byte, *bn254.G1, *bn254.G1) fr.Element { return fr.Element{} }
	vf := NewVerifier(params)
	pk := sk.Public()
	// Two-element windows, so the batch paths run their prologue's shared
	// inversion over more than one index.
	pks, msgs, sigs := []*PublicKey{pk, pk}, [][]byte{msg, msg}, []*Signature{sig, sig}
	bv := func() *BatchVerifier { return vf.Batch(BatchOptions{}) }
	paths := map[string]func() error{
		"Verify":           func() error { return vf.Verify(pk, msg, sig) },
		"VerifySameSigner": func() error { return bv().VerifySameSigner(pk, msgs, sigs) },
		"VerifyMulti":      func() error { return bv().VerifyMulti(pks, msgs, sigs) },
	}
	for name, run := range paths {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("zero challenge hash panicked: %v", r)
				}
			}()
			if err := run(); !errors.Is(err, ErrInvalidSignature) {
				t.Fatalf("zero challenge hash: got %v, want ErrInvalidSignature", err)
			}
		})
	}
}

// TestBatchWindowErrorOrder holds the window's prologue, whose blocks run
// on any P in any order, to the serial error order at GOMAXPROCS 1, 2 and 8
// (2, 2 and 8 blocks of a 64-signature window), on a fresh verifier and on
// one whose records hold accepted pairs: the lowest-index shape error wins,
// wherever a zero challenge (h2Override) sits, and with none a window
// reports its lowest-index zero challenge by index.
func TestBatchWindowErrorOrder(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 64, 16)
	params := *vf.params
	params.h2Override = func(msg []byte, r, pid *bn254.G1) fr.Element {
		if bytes.HasPrefix(msg, []byte("zero")) {
			return fr.Element{}
		}
		return vf.params.hashH2(msg, r, pid)
	}
	known := NewVerifier(&params)
	for i := range 16 {
		if err := known.Verify(pks[i], msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	noR := func(i int) { sigs[i] = &Signature{V: sigs[i].V, S: sigs[i].S} }
	noV := func(i int) { sigs[i] = &Signature{S: sigs[i].S, R: sigs[i].R} }
	zero := func(i int) { msgs[i] = []byte("zero") }
	pks0, msgs0, sigs0 := slices.Clone(pks), slices.Clone(msgs), slices.Clone(sigs)
	for _, tc := range []struct {
		name  string
		plant func()
		want  func() error
	}{
		{"shape error in the last block, zero challenge in the first", func() { pks[63] = nil; zero(0) },
			func() error { return checkShape(nil, sigs[63], nil) }},
		{"shape errors in two blocks", func() { noV(60); noR(5) }, func() error { return checkShape(pks[5], sigs[5], nil) }},
		{"lone zero challenge", func() { zero(37) }, func() error { return fmt.Errorf("%w (index 37)", errZeroChallenge) }},
		{"zero challenges in two blocks", func() { zero(40); zero(9) }, func() error { return fmt.Errorf("%w (index 9)", errZeroChallenge) }},
	} {
		copy(pks, pks0)
		copy(msgs, msgs0)
		copy(sigs, sigs0)
		tc.plant()
		want := tc.want().Error()
		for _, v := range []*Verifier{NewVerifier(&params), known} {
			for _, procs := range []int{1, 2, 8} {
				atProcs(procs, func() {
					err := v.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs)
					if err == nil || err.Error() != want || BatchOffenders(err) != nil {
						t.Fatalf("%s at GOMAXPROCS %d (accepted pairs %v): %v, want %s", tc.name, procs, v == known, err, want)
					}
				})
			}
		}
	}
}

// TestBatchInverse holds the window's one-inversion helper to fr.Inverse
// index by index, and to reporting the first zero wherever it sits.
func TestBatchInverse(t *testing.T) {
	rng := fixedRand(95)
	xs := make([]fr.Element, 9)
	for i := range xs {
		var err error
		if xs[i], err = fr.Random(rng); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]fr.Element, len(xs))
	if i := batchInverse(out, xs); i != -1 {
		t.Fatalf("no zero, but index %d reported", i)
	}
	for i := range xs {
		var want fr.Element
		want.Inverse(&xs[i])
		if out[i] != want {
			t.Fatalf("index %d: batch inverse differs from fr.Inverse", i)
		}
	}
	if batchInverse(nil, nil) != -1 {
		t.Fatal("an empty batch reported a zero")
	}
	for _, at := range []int{0, len(xs) / 2, len(xs) - 1} {
		zs := slices.Clone(xs)
		zs[at], zs[len(zs)-1] = fr.Element{}, fr.Element{} // a later zero is not the first
		if i := batchInverse(out, zs); i != at {
			t.Fatalf("zero at %d reported at %d", at, i)
		}
	}
}

// TestVerifierCacheBounded floods a small-capacity verifier with unique
// identities and checks the per-identity caches stay within their bound.
func TestVerifierCacheBounded(t *testing.T) {
	rng := fixedRand(93)
	kgc, err := Setup(rng)
	if err != nil {
		t.Fatal(err)
	}
	vf := NewVerifierCap(kgc.Params(), 4)
	msg := []byte("flood")
	for i := 0; i < 12; i++ {
		id := "flood-" + string(rune('a'+i))
		sk, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := Sign(kgc.Params(), sk, msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := vf.Verify(sk.Public(), msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	if vf.signers.Len() != 4 {
		t.Fatalf("cache length %d after identity flood, want 4", vf.signers.Len())
	}
}
