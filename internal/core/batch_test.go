package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// fixedSeed is a deterministic 32-byte weight seed for invariance tests.
func fixedSeed() *bytes.Reader { return bytes.NewReader(bytes.Repeat([]byte{0x5a}, 32)) }

// upTo returns the index list 0, 1, …, n-1.
func upTo(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// tableOnly readies vf the way a consumer that only batches finds it: every
// identity of pks holds m_ID, and one window over the signatures has cached
// their line tables. No record holds an accepted pair (only Verify stores
// one), so a later window decides every index by the aggregate equation.
func tableOnly(t testing.TB, vf *Verifier, pks []*PublicKey, msgs [][]byte, sigs []*Signature) {
	t.Helper()
	for _, pk := range pks {
		if _, ok := vf.signers.Get(pk.ID); !ok {
			vf.rhs(nil, pk.ID)
		}
	}
	if err := testBatch(vf, chunkWidth, 1).VerifyMulti(pks, msgs, sigs); err != nil {
		t.Fatal(err)
	}
	for _, pk := range pks {
		if r, _ := vf.signers.Get(pk.ID); r.ok.Load() != nil {
			t.Fatalf("%s holds an accepted pair after a clean window", pk.ID)
		}
	}
}

// testBatch is Batch with a fixed weight seed and the chunk width and
// worker count no caller outside this package can set.
func testBatch(vf *Verifier, chunk, workers int) *BatchVerifier {
	bv := vf.Batch(BatchOptions{Weights: fixedSeed()})
	bv.chunk, bv.workers = chunk, workers
	return bv
}

func TestBatchEngineLocatesOffenders(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 20, 4)
	bad := append([][]byte{}, msgs...)
	bad[3] = []byte("tampered-3")
	bad[17] = []byte("tampered-17")
	err := testBatch(vf, 8, 0).VerifyMulti(pks, bad, sigs)
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("tampered batch: %v", err)
	}
	if got, want := BatchOffenders(err), []int{3, 17}; !slices.Equal(got, want) {
		t.Fatalf("offenders %v, want %v", got, want)
	}
}

func TestBatchEngineWorkerInvariance(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 33, 3)
	bad := append([][]byte{}, msgs...)
	bad[0] = []byte("x")
	bad[16] = []byte("y")
	bad[32] = []byte("z")
	for _, workers := range []int{1, 2, 8} {
		err := testBatch(vf, 8, workers).VerifyMulti(pks, bad, sigs)
		if got, want := BatchOffenders(err), []int{0, 16, 32}; !slices.Equal(got, want) {
			t.Fatalf("workers=%d: offenders %v (%v), want %v", workers, got, err, want)
		}
		// A clean batch must accept at every worker count too.
		if err := testBatch(vf, 8, workers).VerifyMulti(pks, msgs, sigs); err != nil {
			t.Fatalf("workers=%d rejected a valid batch: %v", workers, err)
		}
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
	if err := testBatch(vf, 4, 0).VerifySameSigner(sk.Public(), msgs, sigs); err != nil {
		t.Fatalf("valid same-signer batch rejected: %v", err)
	}
	bad := append([][]byte{}, msgs...)
	bad[7] = []byte("tampered")
	err := testBatch(vf, 4, 0).VerifySameSigner(sk.Public(), bad, sigs)
	if !slices.Equal(BatchOffenders(err), []int{7}) {
		t.Fatalf("same-signer window: %v", err)
	}
}

// checkPairwise is the differential oracle for window.check: the aggregate
// product with nothing folded and no kernel shared with the shipped path —
// ρᵢ as a full-width scalar, Aᵢ = (Vᵢ/hᵢ)·P - Rᵢ and ρᵢ·Aᵢ by the
// variable-base ladder, one Miller pair and one weighted Q_ID per signature:
//
//	Π e(ρᵢ·Aᵢ, Sᵢ) · e(-P_pub, Σ ρᵢ·Q_IDᵢ).
func (w *window) checkPairwise(idxs []int) *bn254.GT {
	var ps []*bn254.G1
	var qs []*bn254.G2
	qSum := bn254.G2Infinity()
	params := w.vf.params
	for _, i := range idxs {
		sig := w.sigs[i]
		a := commitment(params, w.pks[i], w.msgs[i], sig)
		rho := w.rho[i].Fr()
		ps = append(ps, a.ScalarMultFr(a, &rho))
		qs = append(qs, sig.S)
		qSum.Add(qSum, new(bn254.G2).ScalarMultFr(qID(w.pks[i].ID), &rho))
	}
	ps = append(ps, new(bn254.G1).Neg(params.Ppub))
	qs = append(qs, qSum)
	return bn254.FinalExp(bn254.MillerLoopMulti(ps, qs))
}

// TestBatchGroupedVsPairwise runs the shipped chunk check against the
// pairwise oracle under one weight seed: every chunk's product byte-equal
// to the pairwise one, a clean chunk's one on both sides, and the same
// error class and offender slice as a run that records the products, each
// run on a fresh verifier.
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
	const chunk = 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, m, s := slices.Clone(pks), slices.Clone(msgs), slices.Clone(sigs)
			tc.edit(p, m, s)
			got := testBatch(NewVerifier(params), chunk, 0).VerifyMulti(p, m, s)

			// The same window again, one worker, every chunk's product
			// recorded and held to the oracle before reject decides it.
			oracle := testBatch(NewVerifier(params), chunk, 1)
			w, want := oracle.newWindow(p, m, s)
			if want == nil {
				for lo := 0; lo < len(w.rest); lo += chunk {
					idxs := w.rest[lo:min(lo+chunk, len(w.rest))]
					v := w.check(idxs)
					if !bytes.Equal(v.Marshal(), w.checkPairwise(idxs).Marshal()) {
						t.Fatalf("chunk %v: the grouped product differs from the pairwise one", idxs)
					}
					if tc.bad == nil && !v.IsOne() {
						t.Fatalf("clean chunk %v must pass", idxs)
					}
				}
				if err := oracle.reject(w.rest, w); err != nil || len(w.bad) > 0 {
					want = &batchError{bad: slices.Sorted(slices.Values(append(w.bad, BatchOffenders(err)...)))}
				}
			}
			for _, class := range []error{ErrVerifyFailed, ErrInvalidSignature, ErrInvalidKey} {
				if errors.Is(got, class) != errors.Is(want, class) {
					t.Fatalf("error class: grouped %v, recorded %v", got, want)
				}
			}
			if (got == nil) != (want == nil) || !slices.Equal(BatchOffenders(got), BatchOffenders(want)) {
				t.Fatalf("grouped %v, recorded %v", got, want)
			}
			if !slices.Equal(BatchOffenders(got), tc.bad) {
				t.Fatalf("offenders %v, want %v", BatchOffenders(got), tc.bad)
			}
		})
	}
}

// atProcs runs f at GOMAXPROCS procs, the width a window's checks fan out
// to, and restores the old setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestBatchWindowOpCounts pins what folding, line tables and accepted pairs
// buy, in the idiom of bn254's TestMillerLoopMultiOpCounts: a clean window
// that reaches the aggregate equation costs one Miller pair per distinct S
// plus the P_pub pair under one final exponentiation, and every pair folds
// its 88 lines. On a cold verifier every pair steps its G2 chain (65
// doubling, 23 addition steps). Once the signers' records hold their tables,
// cached by an earlier window, only the Q_ID sum does. The pairs are cut
// into one lockstep loop per worker, so only the Miller squarings move with
// the width: 65 per part. G1 mults: 64 R's fed to the joint ladders and one
// fixed-base pass per S-group; G2 mults: one Q_ID per identity fed to the
// Q_ID sum and on a cold verifier one more in hashing Q_ID; S needs no
// subgroup check, as its Miller loop or table build is one. Once Verify has
// accepted each signer's (S, A), the window costs one fixed-base pass per
// signature and no pairing.
func TestBatchWindowOpCounts(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, tc := range []struct {
			signers                   int
			warm                      string // "", "tables" or "accepted"
			pairings, stepped, g1, g2 uint64
		}{{16, "", 17, 17, 80, 32}, {1, "", 2, 2, 65, 2}, {16, "tables", 17, 1, 80, 16}, {16, "accepted", 0, 0, 64, 0}} {
			_, vf, pks, msgs, sigs := multiBatch(t, 64, tc.signers)
			switch tc.warm {
			case "tables":
				tableOnly(t, vf, pks, msgs, sigs)
			case "accepted":
				for range 2 { // m_ID and the accepted pair, then the table
					for i := range tc.signers {
						if err := vf.Verify(pks[i], msgs[i], sigs[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			bv := testBatch(vf, chunkWidth, 1)
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
			parts, finalExps := min(uint64(procs), tc.pairings), min(tc.pairings, 1)
			if d.Pairings != tc.pairings || d.FinalExps != finalExps || d.MillerSquarings != 65*parts ||
				d.LineDoubles != 65*tc.stepped || d.LineAdds != 23*tc.stepped || d.SparseMuls != 88*tc.pairings ||
				d.G1ScalarMults != tc.g1 || d.G2ScalarMults != tc.g2 {
				t.Fatalf("GOMAXPROCS %d, 64 signatures / %d signers (warm %q): %d pairs, %d final exps, %d Miller squarings, %d doubling and %d addition steps, %d sparse products, %d G1 and %d G2 mults; want %d, %d, %d, %d, %d, %d, %d, %d",
					procs, tc.signers, tc.warm, d.Pairings, d.FinalExps, d.MillerSquarings, d.LineDoubles, d.LineAdds, d.SparseMuls, d.G1ScalarMults, d.G2ScalarMults,
					tc.pairings, finalExps, 65*parts, 65*tc.stepped, 23*tc.stepped, 88*tc.pairings, tc.g1, tc.g2)
			}
			// Verify's rule: no table for an identity seen for the first time.
			want := 0
			if tc.warm != "" {
				want = tc.signers
			}
			if n := tables(vf, pks); n != want {
				t.Fatalf("GOMAXPROCS %d, 64 signatures / %d signers (warm %q): %d line tables cached, want %d", procs, tc.signers, tc.warm, n, want)
			}
		}
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

// TestBatchSecondSightingBuildsTables: a signer seen only through the batch
// earns its table as through Verify, at its second sighting. On a fresh
// verifier the same clean 64/16 window steps 17 G2 chains (every pair a
// point pair), then 17 again (16 table builds and the Q_ID sum), then 1,
// and leaves the 16 tables cached.
func TestBatchSecondSightingBuildsTables(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 64, 16)
	for k, stepped := range []uint64{17, 17, 1} {
		before := bn254.ReadOpCounts()
		if err := testBatch(vf, chunkWidth, 1).VerifyMulti(pks, msgs, sigs); err != nil {
			t.Fatal(err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.LineDoubles != 65*stepped || d.LineAdds != 23*stepped {
			t.Fatalf("window %d: %d doubling and %d addition steps, want %d and %d", k+1, d.LineDoubles, d.LineAdds, 65*stepped, 23*stepped)
		}
	}
	if n := tables(vf, pks); n != 16 {
		t.Fatalf("%d line tables cached after three windows, want 16", n)
	}
}

// TestBatchFanOutInvariance runs a clean, a forged and a first window (a
// fresh verifier) at GOMAXPROCS 1, 2 and 4: the chunk's reduced product and
// the offender set must be byte-equal at every width. The forged window
// pins its signers' pairs, so each of its runs gets a fresh verifier with
// the clean one's records.
func TestBatchFanOutInvariance(t *testing.T) {
	_, warm, pks, msgs, sigs := multiBatch(t, 64, 16)
	tableOnly(t, warm, pks, msgs, sigs)
	forged := slices.Clone(msgs)
	forged[37] = []byte("forged")
	params := warm.params
	idxs := upTo(len(sigs))
	for _, tc := range []struct {
		name    string
		vf      func() *Verifier
		msgs    [][]byte
		wantBad []int
	}{
		{"clean", func() *Verifier { return warm }, msgs, nil},
		{"forged", func() *Verifier {
			vf := NewVerifier(params)
			tableOnly(t, vf, pks, msgs, sigs)
			return vf
		}, forged, []int{37}},
		{"first", func() *Verifier { return NewVerifier(params) }, msgs, nil},
	} {
		var ref []byte
		for _, procs := range []int{1, 2, 4} {
			atProcs(procs, func() {
				bv := testBatch(tc.vf(), chunkWidth, 0)
				w, err := bv.newWindow(pks, tc.msgs, sigs)
				if err != nil {
					t.Fatal(err)
				}
				gt := w.check(idxs)
				if gt.IsOne() != (tc.wantBad == nil) {
					t.Fatalf("%s: GOMAXPROCS %d: product is one %v, want %v", tc.name, procs, gt.IsOne(), tc.wantBad == nil)
				}
				if v := gt.Marshal(); ref == nil {
					ref = v
				} else if !bytes.Equal(v, ref) {
					t.Fatalf("%s: GOMAXPROCS %d reduces to another product than GOMAXPROCS 1", tc.name, procs)
				}
				err = testBatch(tc.vf(), chunkWidth, 0).VerifyMulti(pks, tc.msgs, sigs)
				if got := BatchOffenders(err); !slices.Equal(got, tc.wantBad) || (err == nil) != (tc.wantBad == nil) {
					t.Fatalf("%s: GOMAXPROCS %d: offenders %v (%v), want %v", tc.name, procs, got, err, tc.wantBad)
				}
			})
		}
	}
}

// TestBatchTablesMatchVerify runs windows that mix line-table hits, a forged
// S under a known identity, a forgery carrying its signer's real S (a valid
// signature over another message) and a replaced key (a new S for a known
// identity), at 1, 2 and 8 workers. Chunk c holds signers 2c and 2c+1 only.
// No record holds an accepted pair, so every index reaches a chunk: tab-0 to
// tab-2 start with m_ID and a table cached by an earlier window, tab-3 to
// tab-6 with m_ID only, and tab-7 is unknown (no record) until the first
// window meets it, so it earns a table in the second. Offenders
// must be the indices a fresh verifier's Verify rejects. After each window
// every cached table and accepted pair must have been there before it or
// carry the S (and the A) of a valid signature under its identity in the
// window — a forged S displaces nothing — and an identity known before the
// window with one S across the clean chunks must hold that S's table.
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
	const n, chunk = 32, 8
	sks := make([]*PrivateKey, 8)
	for j := range sks {
		sks[j] = keyPair(fmt.Sprintf("tab-%d", j))
	}
	replaced := keyPair("tab-6")
	forgedS := new(bn254.G2).ScalarMult(bn254.G2Generator(), big.NewInt(1234567))
	pks, msgs, sigs := make([]*PublicKey, n), make([][]byte, n), make([]*Signature, n)
	for i := range n {
		sk := sks[i/chunk*2+i%2]
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
			p[24], s[24] = replaced.Public(), sign(replaced, m[24]) // tab-6's new S, in a clean chunk
		}, bad: []int{10, 20}},
		{name: "clean", edit: func([]*PublicKey, [][]byte, []*Signature) {}},
		{name: "a replaced key in a dirty chunk", edit: func(p []*PublicKey, m [][]byte, s []*Signature) {
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

	for _, workers := range []int{1, 2, 8} {
		vf := NewVerifier(params)
		var tp []*PublicKey
		var tm [][]byte
		var ts []*Signature
		for _, sk := range sks[:3] {
			tp, tm, ts = append(tp, sk.Public()), append(tm, msgs[0]), append(ts, sign(sk, msgs[0]))
		}
		tableOnly(t, vf, tp, tm, ts)
		for _, sk := range sks[3:7] {
			vf.rhs(nil, sk.Public().ID)
		}
		for _, w := range windows {
			before, known, oks := map[string]*bn254.G2{}, map[string]bool{}, map[string]*accepted{}
			for _, sk := range sks {
				id := sk.Public().ID
				if l, ok := tableOf(vf, id); ok {
					before[id] = l.Q()
				}
				var r *signer
				if r, known[id] = vf.signers.Get(id); known[id] {
					oks[id] = r.ok.Load()
				}
			}
			err := testBatch(vf, chunk, workers).VerifyMulti(w.p, w.m, w.s)
			if got := BatchOffenders(err); !slices.Equal(got, w.bad) || (err == nil) != (w.bad == nil) {
				t.Fatalf("workers=%d %s: offenders %v (%v), want %v", workers, w.name, got, err, w.bad)
			}
			clean := map[string][]*bn254.G2{} // the distinct S of each identity's clean-chunk signatures
			for lo := 0; lo < n; lo += chunk {
				if slices.ContainsFunc(w.bad, func(i int) bool { return i/chunk == lo/chunk }) {
					continue
				}
				for i := lo; i < lo+chunk; i++ {
					if id := w.p[i].ID; !slices.ContainsFunc(clean[id], w.s[i].S.Equal) {
						clean[id] = append(clean[id], w.s[i].S)
					}
				}
			}
			for _, sk := range sks {
				id := sk.Public().ID
				l, ok := tableOf(vf, id)
				switch {
				case ok && !(before[id] != nil && l.Q().Equal(before[id])) && !ofValid(params, w.p, w.m, w.s, w.bad, id, l.Q(), nil):
					t.Fatalf("workers=%d %s: %s caches a table of no valid signature in the window", workers, w.name, id)
				case known[id] && len(clean[id]) == 1 && !(ok && l.Q().Equal(clean[id][0])):
					t.Fatalf("workers=%d %s: %s's clean S has no cached table", workers, w.name, id)
				}
				if r, found := vf.signers.Get(id); found {
					if pair := r.ok.Load(); pair != oks[id] && !ofValid(params, w.p, w.m, w.s, w.bad, id, &pair.s, &pair.a) {
						t.Fatalf("workers=%d %s: %s holds an accepted pair of no valid signature in the window", workers, w.name, id)
					}
				}
			}
		}
	}
}

// TestBatchFailingChunkCost pins what a failing chunk costs on a
// 64-signature/16-signer window, signer i mod 16 at index i, so S-group g is
// {g, g+16, g+32, g+48}, over records that hold m_ID and line tables but no
// accepted pair, so every index reaches the aggregate equation. The chunk's
// check is one final exponentiation and 17 Miller pairs. settle then walks
// each S-group in index order: Verify up to and including its first valid
// index (one final exp and one table pair each: m_ID is cached), which pins
// the signer's pair, then one fixed-base pass per later index. A group
// pays one Verify more when its first index is forged: {0} costs 18 final
// exps and 34 pairs, a lone forgery anywhere else 17 and 33, and 2, 4 or 8
// offenders with one or two of them first in their group 18/34 or 19/35.
// Each case gets a fresh verifier, as settle pins pairs. Once Verify has
// accepted every signer's (S, A), a tampered message carries its signer's
// accepted S with another A, so the accept round rejects it by that A
// alone: no index reaches a check, 0 final exps and 0 pairs.
func TestBatchFailingChunkCost(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 64, 16)
	params := kgc.Params()
	tabled := func() *Verifier {
		vf := NewVerifier(params)
		tableOnly(t, vf, pks, msgs, sigs)
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
		{false, []int{0}, 18, 34}, {false, []int{31}, 17, 33}, {false, []int{32}, 17, 33}, {false, []int{37}, 17, 33},
		{false, []int{63}, 17, 33}, {false, []int{3, 40}, 18, 34}, {false, []int{40, 56}, 17, 33},
		{false, []int{3, 20, 40, 57}, 18, 34}, {false, []int{3, 12, 20, 29, 40, 46, 57, 63}, 19, 35},
		{true, []int{0}, 0, 0}, {true, []int{37}, 0, 0}, {true, []int{3, 40}, 0, 0},
	} {
		vf := known
		if !tc.known {
			vf = tabled()
		}
		before := bn254.ReadOpCounts()
		err := testBatch(vf, chunkWidth, 1).VerifyMulti(pks, tamper(tc.at...), sigs)
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
	// Two adjacent offenders, two far apart, one in each chunk, and a chunk
	// forged throughout.
	for _, tc := range []struct {
		chunk int
		want  []int
	}{{64, []int{40, 41}}, {64, []int{3, 40}}, {32, []int{5, 60}}, {16, all}} {
		for _, workers := range []int{1, 2, 8} {
			err := testBatch(tabled(), tc.chunk, workers).VerifyMulti(pks, tamper(tc.want...), sigs)
			if got := BatchOffenders(err); !slices.Equal(got, tc.want) {
				t.Fatalf("chunk=%d workers=%d: offenders %v (%v), want %v", tc.chunk, workers, got, err, tc.want)
			}
		}
	}
}

// TestBatchOffSubgroupS: a window whose index 5 carries an on-curve S off
// G2 names exactly that index, whether its identity is a first contact (the
// chunk's Miller loop finds the S) or holds a line table (the chunk's table
// build does), at every chunk width and GOMAXPROCS, once its chunk is
// settled by Verify; no record accepts the S or caches a table for it.
func TestBatchOffSubgroupS(t *testing.T) {
	kgc, _, pks, msgs, sigs := multiBatch(t, 16, 4)
	sigs = slices.Clone(sigs)
	sigs[5] = &Signature{V: sigs[5].V, S: offSubgroupG2(t), R: sigs[5].R}
	for _, tabled := range []bool{false, true} {
		for _, chunk := range []int{chunkWidth, 8} {
			for _, procs := range []int{1, 2} {
				vf := NewVerifier(kgc.Params())
				if tabled {
					tableOnly(t, vf, pks[:4], msgs[:4], sigs[:4])
				}
				var err error
				atProcs(procs, func() { err = testBatch(vf, chunk, 0).VerifyMulti(pks, msgs, sigs) })
				if got := BatchOffenders(err); !slices.Equal(got, []int{5}) {
					t.Fatalf("tabled %v, chunk %d, GOMAXPROCS %d: offenders %v (%v), want [5]", tabled, chunk, procs, got, err)
				}
				r, _ := vf.signers.Get(pks[5].ID)
				if ok := r.ok.Load(); ok != nil && ok.s.Equal(sigs[5].S) || r.lines.Load() != nil && r.lines.Load().Q().Equal(sigs[5].S) {
					t.Fatalf("tabled %v, chunk %d, GOMAXPROCS %d: the record took the S off G2", tabled, chunk, procs)
				}
			}
		}
	}
}

// TestBatchAcceptedRace: two valid key pairs of one identity take turns
// through Verify on two goroutines, so the identity's accepted pair flips
// between their (S, A), while two more goroutines run windows over
// signatures of both keys and of a second identity. Four are forged under
// the flipping identity, so the accept round rejects each while its key's
// pair is the accepted one and a check decides it otherwise: tampered
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
				err := testBatch(vf, 8, 0).VerifyMulti(pks, msgs, sigs)
				if got := BatchOffenders(err); !slices.Equal(got, want) {
					t.Errorf("offenders %v (%v), want %v", got, err, want)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestBatchWindowAllocs keeps the joint walks' tables and digit rows off
// the heap: a clean 64/16 window over records that hold line tables but no
// accepted pair makes exactly its measured 40 allocations at GOMAXPROCS 1,
// so one escaped row buffer (18 more) fails here, as does a fan-out that
// allocates when it runs inline. At GOMAXPROCS 2 each of the three fan-outs
// (the prologue, the points, the Miller parts) adds its shared state and
// its worker's closure, and the Miller parts add their slice and one more
// loop's accumulator and table-pair state: 49. The chunk runs inline (one
// chunk). A window that accepted pairs settle entirely makes 5: the window,
// its three per-index slices (k, at, rest) and the rejection, with no weight
// seed and no weights, which only an index left for a check draws; at
// GOMAXPROCS 2 the prologue's fan-out adds 2. Nothing on the path draws on a
// sync.Pool, so the counts are exact under -race too.
func TestBatchWindowAllocs(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 64, 16)
	bv := vf.Batch(BatchOptions{})
	for range 2 { // Q_ID, then the tables
		if err := bv.VerifyMulti(pks, msgs, sigs); err != nil {
			t.Fatal(err)
		}
	}
	known := NewVerifier(vf.params)
	for i := range 16 {
		if err := known.Verify(pks[i], msgs[i], sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		bv       *BatchVerifier
		accepted bool
		procs    int
		allocs   uint64
	}{{bv, false, 1, 40}, {bv, false, 2, 49}, {known.Batch(BatchOptions{}), true, 1, 5}, {known.Batch(BatchOptions{}), true, 2, 7}} {
		if allocs := allocsAt(tc.procs, 20, func() {
			if err := tc.bv.VerifyMulti(pks, msgs, sigs); err != nil {
				t.Fatal(err)
			}
		}); allocs != tc.allocs {
			t.Errorf("clean warm 64/16 window (accepted pairs %v) at GOMAXPROCS %d: %v allocations, want %v", tc.accepted, tc.procs, allocs, tc.allocs)
		}
	}
}

// FuzzBatchVsVerify is the batch plane's differential oracle: a window the
// fuzz bytes draw — n = 1–80 signatures over k = 1–20 signers (order[i]
// names index i's signer, i mod k past its end), chunks of 1 + chunk mod n,
// warm or cold caches (flags bit 0: every signer's m_ID, accepted pair and
// table, from its honest key or, with bit 2, from its replaced one, so the
// accepted S and the window's S disagree either way), GOMAXPROCS 1 or 2
// (bit 1) — with up to four planted faults, each three bytes (kind, index,
// aux): a tampered message; an S forged under a known identity, aux naming
// one of five forged points, the last on the curve but off G2, so faults
// can share an S-group; the identity's
// key replaced, the signature re-signed under it for odd aux (valid) or kept
// (invalid); or the signature filed under another identity. The offenders
// must be exactly the indices a fresh Verifier's Verify rejects. A table or
// accepted pair the window stored (a clean chunk's check stores tables, a
// failing chunk's Verify calls tables and pairs) must carry the S, and the
// A recomputed by math/big, of a valid signature under its identity in the
// window: a forged S displaces nothing.
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

	f.Fuzz(func(t *testing.T, n, signers, chunk, flags uint8, faults, order []byte) {
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
		before, oks := map[string]*bn254.G2{}, map[string]*accepted{}
		for _, sk := range sks {
			id := sk.Public().ID
			if l, ok := tableOf(vf, id); ok {
				before[id] = l.Q()
			}
			if r, ok := vf.signers.Get(id); ok {
				oks[id] = r.ok.Load()
			}
		}
		width := 1 + int(chunk)%nn
		var err error
		atProcs(1+int(flags>>1&1), func() { err = testBatch(vf, width, 0).VerifyMulti(p, m, s) })
		if got := BatchOffenders(err); !slices.Equal(got, want) || (err == nil) != (want == nil) {
			t.Fatalf("%d signatures / %d signers in chunks of %d: offenders %v (%v), a fresh Verify rejects %v", nn, k, width, got, err, want)
		}

		for _, sk := range sks {
			id := sk.Public().ID
			if l, ok := tableOf(vf, id); ok && !(before[id] != nil && l.Q().Equal(before[id])) && !ofValid(params, p, m, s, want, id, l.Q(), nil) {
				t.Fatalf("%s caches a table of no valid signature in the window", id)
			}
			if r, ok := vf.signers.Get(id); ok {
				if pair := r.ok.Load(); pair != oks[id] && !ofValid(params, p, m, s, want, id, &pair.s, &pair.a) {
					t.Fatalf("%s holds an accepted pair of no valid signature in the window", id)
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

// rejectWindow is a window of n signatures from k signers over a fresh
// verifier, the messages at bad tampered, in chunks of 16 on one worker:
// no record holds a pair, so every index is in the window's rest.
func rejectWindow(t *testing.T, n, k int, bad ...int) (*BatchVerifier, *window) {
	t.Helper()
	_, vf, pks, msgs, sigs := multiBatch(t, n, k)
	for _, i := range bad {
		msgs[i] = []byte{0xfe, byte(i)}
	}
	bv := testBatch(vf, 16, 1)
	w, err := bv.newWindow(pks, msgs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return bv, w
}

// TestBatchRejectLocatesOffenders: 100 signatures from 10 signers in chunks
// of 16 are 7 checks, four of them failing. At one worker and one P the
// chunks run in order: the first failing chunk's settle runs Verify on each
// of its 10 S-groups, once more for index 3, which is first in its group,
// and pins every signer's pair, so the later failing chunks are settled by
// fixed-base passes alone: 7 + 11 final exponentiations.
func TestBatchRejectLocatesOffenders(t *testing.T) {
	atProcs(1, func() {
		bv, w := rejectWindow(t, 100, 10, 3, 17, 42, 99)
		before := bn254.ReadOpCounts()
		err := bv.reject(w.rest, w)
		if got, want := BatchOffenders(err), []int{3, 17, 42, 99}; !slices.Equal(got, want) {
			t.Fatalf("offenders %v (%v), want %v", got, err, want)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != 7+11 {
			t.Fatalf("%d final exps, want 18", d.FinalExps)
		}
	})
}

// TestBatchRejectOverResidual: the chunks are cut from the index list reject
// is given, the indices a window left to the aggregate equation, and its
// offenders are window indices. An index outside the list is never judged.
func TestBatchRejectOverResidual(t *testing.T) {
	var odd []int
	for i := 1; i < 100; i += 2 {
		odd = append(odd, i)
	}
	for _, workers := range []int{1, 2} {
		bv, w := rejectWindow(t, 100, 10, 3, 42, 77, 99)
		bv.workers = workers
		err := bv.reject(odd, w)
		if got, want := BatchOffenders(err), []int{3, 77, 99}; !slices.Equal(got, want) {
			t.Fatalf("workers=%d: offenders %v (%v), want %v", workers, got, err, want)
		}
		if !slices.Equal(odd[:3], []int{1, 3, 5}) || odd[49] != 99 {
			t.Fatalf("workers=%d: reject rewrote its index list", workers)
		}
	}
}

// TestBatchRejectAllGood: a clean window is one check per chunk, 7 final
// exponentiations for 100 signatures in chunks of 16, and no Verify, so no
// record gets a pair; an empty list is none.
func TestBatchRejectAllGood(t *testing.T) {
	bv, w := rejectWindow(t, 100, 10)
	for _, tc := range []struct {
		idxs      []int
		finalExps uint64
	}{{w.rest, 7}, {nil, 0}} {
		before := bn254.ReadOpCounts()
		if err := bv.reject(tc.idxs, w); err != nil {
			t.Fatalf("clean batch of %d: %v", len(tc.idxs), err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != tc.finalExps {
			t.Fatalf("clean batch of %d: %d final exps, want %d", len(tc.idxs), d.FinalExps, tc.finalExps)
		}
	}
	for _, pk := range w.pks {
		if r, _ := w.vf.signers.Get(pk.ID); r.ok.Load() != nil {
			t.Fatalf("%s holds an accepted pair after a clean window", pk.ID)
		}
	}
}

func TestBatchRejectWorkerInvariance(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		bv, w := rejectWindow(t, 65, 5, 0, 31, 32, 63, 64)
		bv.chunk, bv.workers = 8, workers
		err := bv.reject(w.rest, w)
		if got, want := BatchOffenders(err), []int{0, 31, 32, 63, 64}; !slices.Equal(got, want) {
			t.Fatalf("workers=%d: offenders %v (%v), want %v", workers, got, err, want)
		}
	}
}

// TestBatchRejectSettlesByVerify: a failing chunk of signers a (even
// indices) and b (odd), index 0 tampered and index 5 carrying a forged S,
// is three S-groups. a's runs Verify on 0 (rejected) and 2 (accepted,
// pinning a's pair), then decides 4 and 6 by that pair; b's runs Verify on 1
// alone; the forged S's, on 5, which b's pair cannot decide. The check and
// four Verify calls are 5 final exponentiations, and each record holds the
// (S, A) of its signer's first valid index.
func TestBatchRejectSettlesByVerify(t *testing.T) {
	atProcs(1, func() {
		bv, w := rejectWindow(t, 8, 2, 0)
		w.sigs[5] = &Signature{V: w.sigs[5].V, S: new(bn254.G2).ScalarMult(bn254.G2Generator(), big.NewInt(55)), R: w.sigs[5].R}
		before := bn254.ReadOpCounts()
		err := bv.reject(w.rest, w)
		if got := BatchOffenders(err); !slices.Equal(got, []int{0, 5}) {
			t.Fatalf("offenders %v (%v), want [0 5]", got, err)
		}
		if d := bn254.ReadOpCounts().Sub(before); d.FinalExps != 5 {
			t.Fatalf("%d final exps, want 5", d.FinalExps)
		}
		for _, i := range []int{2, 1} {
			r, _ := w.vf.signers.Get(w.pks[i].ID)
			if ok := r.ok.Load(); ok == nil || !ok.s.Equal(w.sigs[i].S) || !ok.a.Equal(commitment(w.vf.params, w.pks[i], w.msgs[i], w.sigs[i])) {
				t.Fatalf("%s does not hold the pair of index %d", w.pks[i].ID, i)
			}
		}
	})
}

// TestBatchRejectPanicPropagates: a chunk recovers its check's panic as an
// error, inline and on a second goroutine alike. Every R is gone after the
// shape checks, so each check panics.
func TestBatchRejectPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2} {
		bv, w := rejectWindow(t, 4, 2)
		bv.chunk, bv.workers = 2, workers
		for i, sig := range w.sigs {
			w.sigs[i] = &Signature{V: sig.V, S: sig.S}
		}
		if err := bv.reject(w.rest, w); err == nil || BatchOffenders(err) != nil {
			t.Fatalf("workers=%d: a panicking check must surface as a plain error, got %v", workers, err)
		}
	}
}

// TestBatchCheckPanicOnFanOutWorker: a real check at GOMAXPROCS 2 fans its
// group points out to a second goroutine; with every R gone after the shape
// checks, at least two point tasks panic and the caller claims at most one
// of them, so a spawned worker panics too. The panic reaches the chunk's
// recovery as an error instead of ending the process.
func TestBatchCheckPanicOnFanOutWorker(t *testing.T) {
	_, vf, pks, msgs, sigs := multiBatch(t, 16, 4)
	atProcs(2, func() {
		bv := testBatch(vf, chunkWidth, 1)
		s := slices.Clone(sigs)
		w, err := bv.newWindow(pks, msgs, s)
		if err != nil {
			t.Fatal(err)
		}
		if w.width != 2 {
			t.Fatalf("one chunk at GOMAXPROCS 2 fans out to %d workers, want 2", w.width)
		}
		for i := range s {
			s[i] = &Signature{V: s[i].V, S: s[i].S}
		}
		if err := bv.reject(w.rest, w); err == nil || BatchOffenders(err) != nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("a check panicking on a fan-out worker must surface as a plain error, got %v", err)
		}
	})
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

func TestWeightsDeterministicAndBounded(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, 32)
	w1, err := newWeightSeed(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := newWeightSeed(bytes.NewReader(seed))
	for i := 0; i < 100; i++ {
		a, b := w1.at(i), w2.at(i)
		if a != b {
			t.Fatalf("weight %d not deterministic", i)
		}
		if a.A[0]|a.B[0] == 0 {
			t.Fatalf("weight %d is (0, 0)", i)
		}
		if a.A[1]|a.B[1] != 0 {
			t.Fatalf("weight %d has a half wider than 64 bits: %v", i, a)
		}
	}
	if w1.at(0) == w1.at(1) {
		t.Fatal("distinct indices yielded equal weights")
	}
	// Fresh random seeds must differ.
	r1, err := newWeightSeed(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := newWeightSeed(nil)
	if r1.at(0) == r2.at(0) {
		t.Fatal("independent seeds yielded equal weights")
	}
	if _, err := newWeightSeed(bytes.NewReader(seed[:5])); err == nil {
		t.Fatal("a short weight source must be an error")
	}
}

// TestEndoWeights pins what the weights are: the scalar a + b·λ mod r of
// their two halves, λ a primitive cube root of unity mod r — recomputed
// over math/big from (0, 1), the pair that is λ itself — and nonzero, so no
// signature's equation is voided. bn254's TestEndoScalarInjective carries
// the other half of the argument: distinct pairs are distinct scalars.
func TestEndoWeights(t *testing.T) {
	r := bn254.Order
	unit := bn254.EndoScalar{B: [2]uint64{1}}
	unitFr := unit.Fr()
	lambda := unitFr.BigInt()
	cube := new(big.Int).Exp(lambda, big.NewInt(3), r)
	if lambda.Cmp(big.NewInt(1)) == 0 || cube.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("(0, 1) = %v is not a primitive cube root of unity mod r", lambda)
	}
	seed, err := newWeightSeed(fixedSeed())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w := seed.at(i)
		want := new(big.Int).Mul(new(big.Int).SetUint64(w.B[0]), lambda)
		want.Add(want, new(big.Int).SetUint64(w.A[0])).Mod(want, r)
		if got := w.Fr(); got.BigInt().Cmp(want) != 0 || got.IsZero() {
			t.Fatalf("weight %d: (%#x, %#x) = %v, want %v (nonzero)", i, w.A[0], w.B[0], got.BigInt(), want)
		}
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
	// Two-element windows, so the batch paths reach their own weighted
	// precomputation instead of delegating a singleton to Verify.
	pks, msgs, sigs := []*PublicKey{pk, pk}, [][]byte{msg, msg}, []*Signature{sig, sig}
	bv := func() *BatchVerifier { return vf.Batch(BatchOptions{Weights: fixedSeed()}) }
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
					err := testBatch(v, chunkWidth, 0).VerifyMulti(pks, msgs, sigs)
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

// TestMillerPartsCover checks the cut of a check's pairs into Miller parts
// for every mix of up to 20 point and 20 table pairs and every part count
// up to the pair count: the parts are consecutive, none is empty, they
// cover every pair, and no part's cost (a point pair 2, a table pair 1)
// exceeds an equal share by more than one pair's.
func TestMillerPartsCover(t *testing.T) {
	for np := range 21 {
		for nt := range 21 {
			all, total := np+nt, 2*np+nt
			for parts := 1; parts <= all; parts++ {
				p := &pass{ps: make([]*bn254.G1, np), tps: make([]*bn254.G1, nt), fs: make([]*bn254.Fp12, parts)}
				if p.start(0) != 0 || p.start(parts) != all {
					t.Fatalf("%d point + %d table pairs in %d parts: cut from %d to %d, want 0 to %d", np, nt, parts, p.start(0), p.start(parts), all)
				}
				for k := range parts {
					lo, hi := p.start(k), p.start(k+1)
					cost := hi - lo + max(0, min(hi, np)-lo)
					if hi <= lo || (cost-2)*parts > total {
						t.Fatalf("%d point + %d table pairs, part %d of %d: pairs [%d, %d) cost %d of %d", np, nt, k, parts, lo, hi, cost, total)
					}
				}
			}
		}
	}
}
