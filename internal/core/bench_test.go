package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mccls/internal/bn254"
)

// End-to-end McCLS benchmarks. They live here rather than in
// internal/bn254 because bn254 cannot import core (it is the layer below);
// allocs/op is reported so regressions in the allocation-free Montgomery
// arithmetic underneath show up at the protocol level too.

func benchSystem(b *testing.B) (*KGC, *PrivateKey, *Verifier) {
	b.Helper()
	rng := fixedRand(1)
	kgc, err := Setup(rng)
	if err != nil {
		b.Fatal(err)
	}
	ppk := kgc.ExtractPartialPrivateKey("bench-node@manet")
	sk, err := GenerateKeyPair(kgc.Params(), ppk, rng)
	if err != nil {
		b.Fatal(err)
	}
	return kgc, sk, NewVerifier(kgc.Params())
}

func BenchmarkSign(b *testing.B) {
	kgc, sk, _ := benchSystem(b)
	msg := []byte("RREQ 7 from bench-node")
	rng := fixedRand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sign(kgc.Params(), sk, msg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify prices one Verify of a known signer whose record holds
// the (S, A) of its honest signature: warm verifies that signature again
// (one Miller loop over S's table, one final exponentiation), and
// forged-known a tampered message under the accepted S, which its A alone
// rejects, with no pairing and no subgroup check: what each forgery of a
// flood costs.
func BenchmarkVerify(b *testing.B) {
	kgc, sk, vf := benchSystem(b)
	msg := []byte("RREQ 7 from bench-node")
	sig, err := Sign(kgc.Params(), sk, msg, fixedRand(2))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		msg  []byte
		want error
	}{{"warm", msg, nil}, {"forged-known", []byte("forged"), ErrVerifyFailed}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := vf.Verify(sk.Public(), tc.msg, sig); !errors.Is(err, tc.want) {
					b.Fatalf("%v, want %v", err, tc.want)
				}
			}
		})
	}
}

// BenchmarkIssuePartialKey prices what one KGC replica pays per identity:
// the short hash and one multiplication by its share folded with c′.
func BenchmarkIssuePartialKey(b *testing.B) {
	kgc, _, _ := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IssuePartialKey(kgc.Params(), fmt.Sprintf("node-%d@manet", i), &kgc.master)
	}
}

// BenchmarkVerifyManySigners verifies n recurring signers round-robin
// through one default Verifier, each after a first contact and a second
// sighting. Up to DefaultIdentityCacheCap (512) signers every record stays
// with its m_ID and its accepted pair with S's line table, so every verify
// replays a table; that is what the bound's ≈ 6.58 MB buys. Past it the
// round-robin evicts each record before its signer recurs, so at 1,024
// signers every verify is a first contact: a hash to G2 and two Miller
// loops.
func BenchmarkVerifyManySigners(b *testing.B) {
	rng := fixedRand(1)
	kgc, err := Setup(rng)
	if err != nil {
		b.Fatal(err)
	}
	params := kgc.Params()
	msg := []byte("RREQ 7 from a city node")
	pks := make([]*PublicKey, 1024)
	sigs := make([]*Signature, len(pks))
	for i := range pks {
		sk, err := GenerateKeyPair(params, kgc.ExtractPartialPrivateKey(fmt.Sprintf("city-%d", i)), rng)
		if err != nil {
			b.Fatal(err)
		}
		if sigs[i], err = Sign(params, sk, msg, rng); err != nil {
			b.Fatal(err)
		}
		pks[i] = sk.Public()
	}
	for _, n := range []int{500, 512, 1024} {
		b.Run(fmt.Sprintf("signers=%d", n), func(b *testing.B) {
			vf := NewVerifier(params)
			for range 2 { // first contact, then second sighting
				for i := range n {
					if err := vf.Verify(pks[i], msg, sigs[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := vf.Verify(pks[i%n], msg, sigs[i%n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchWindow prices one 64-signature window from 16 known
// signers (every m_ID cached) through VerifyMulti, on three kinds of
// verifier. On one whose records hold the (S, A) Verify accepted, warm is
// decided by the prologue without a pairing and forged-known has one planted
// forgery under its signer's accepted S, which the prologue rejects by its A
// alone: 64 fixed-base passes and no pairing either. On one whose records
// hold m_ID only, first settles every S-group by one Verify, which runs S's
// plain Miller loop and pins the pair, building no table (a fresh such
// verifier per iteration). On the same kind of verifier, forged, forged2,
// forged4 and forged8 carry 1, 2, 4 and 8 forgeries: one Verify per
// S-group and one more per group whose first index is forged
// (16–18 final exponentiations), on a fresh such verifier per iteration,
// built off the clock, as settle pins pairs. repeat is the same clean
// window again on a verifier that has only batched it once: the prologue
// alone. The forged windows log their operation counts per window.
func BenchmarkBatchWindow(b *testing.B) {
	_, known, pks, msgs, sigs := multiBatch(b, 64, 16)
	run := func(b *testing.B, vf *Verifier) {
		if err := vf.Batch(BatchOptions{}).VerifyMulti(pks, msgs, sigs); err != nil {
			b.Fatal(err)
		}
	}
	for i := range 16 {
		if err := known.Verify(pks[i], msgs[i], sigs[i]); err != nil {
			b.Fatal(err)
		}
	}
	// fresh: a fresh verifier with unpinned records per iteration, else known.
	forged := func(fresh bool, at ...int) func(b *testing.B) {
		return func(b *testing.B) {
			bad := slices.Clone(msgs)
			for _, i := range at {
				bad[i] = []byte("forged")
			}
			b.ReportAllocs()
			var d bn254.OpCounts
			for range b.N {
				vf := known
				if fresh {
					b.StopTimer()
					vf = NewVerifier(known.params)
					unpinned(b, vf, pks, msgs, sigs)
					b.StartTimer()
				}
				before := bn254.ReadOpCounts()
				err := vf.Batch(BatchOptions{}).VerifyMulti(pks, bad, sigs)
				d = bn254.ReadOpCounts().Sub(before) // every iteration's, on equal state
				if !slices.Equal(BatchOffenders(err), at) {
					b.Fatalf("offenders %v (%v), want %v", BatchOffenders(err), err, at)
				}
			}
			b.Logf("per window: %d final exps, %d Miller pairs, %d Miller squarings, %d G1 and %d G2 mults",
				d.FinalExps, d.Pairings, d.MillerSquarings, d.G1ScalarMults, d.G2ScalarMults)
		}
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			run(b, known)
		}
	})
	b.Run("forged-known", forged(false, 37))
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			first := NewVerifier(known.params)
			for i := range 16 {
				first.rhs(nil, pks[i].ID)
			}
			b.StartTimer()
			run(b, first)
		}
	})
	b.Run("forged", forged(true, 37))
	b.Run("forged2", forged(true, 3, 40))
	b.Run("forged4", forged(true, 3, 20, 40, 57))
	b.Run("forged8", forged(true, 3, 12, 20, 29, 40, 46, 57, 63))
	b.Run("repeat", func(b *testing.B) {
		vf := NewVerifier(known.params)
		run(b, vf)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			run(b, vf)
		}
	})
}

// TestSignVerifyAllocs pins the allocation budget of the per-packet
// operations now that no scalar is a big.Int: Sign allocates its result
// (the Signature, S, R) and the nonce read buffer the io.Reader interface
// forces to the heap; a warm Verify allocates its Miller value and nothing
// for the final exponentiation, scalars, hashing or the commitment, and no
// closure, channel or goroutine. A first contact (a verifier that holds one
// identity, two identities taking turns) adds the signer record, its Q_ID,
// its m_ID, its accepted (S, A), its two cache-entry allocations and the
// two sides' firstContact, and at GOMAXPROCS 2 the fan-out's state and the
// closure of the worker that takes one side. A warm hit on the accepted
// pair stores nothing.
// Messages are routing-sized, so H2's input fits its stack buffer.
func TestSignVerifyAllocs(t *testing.T) {
	kgc, sk, vf := newTestSystem(t, "allocs@manet")
	msg := []byte("RREQ 7 from allocs@manet, forty-eight bytes long")
	rng := fixedRand(2)
	sig, err := Sign(kgc.Params(), sk, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Verify(sk.Public(), msg, sig); err != nil { // warm the caches
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { Sign(kgc.Params(), sk, msg, rng) }); a != 4 {
		t.Errorf("Sign allocates %v times, want 4", a)
	}
	if a := testing.AllocsPerRun(10, func() { vf.Verify(sk.Public(), msg, sig) }); a != 1 {
		t.Errorf("warm Verify allocates %v times, want 1", a)
	}

	other, err := GenerateKeyPair(kgc.Params(), kgc.ExtractPartialPrivateKey("other@manet"), rng)
	if err != nil {
		t.Fatal(err)
	}
	otherSig, err := Sign(kgc.Params(), other, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	one := NewVerifierCap(kgc.Params(), 1)
	turn := 0
	firstContact := func() {
		k, s := sk, sig
		if turn++; turn%2 == 0 {
			k, s = other, otherSig
		}
		if err := one.Verify(k.Public(), msg, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		procs  int
		allocs uint64
	}{{1, 8}, {2, 10}} {
		if a := allocsAt(tc.procs, 40, firstContact); a != tc.allocs {
			t.Errorf("first-contact Verify at GOMAXPROCS %d allocates %v times, want %v", tc.procs, a, tc.allocs)
		}
	}
}
