package bn254

import (
	"math/big"
	"testing"

	"mccls/internal/bn254/fr"
)

// productOfSingleLoops is the differential oracle for the lockstep kernel:
// the product of independent per-pair Miller loops (millerLoop, or
// millerLoopNaive for the reduced comparison), skipping trivial pairs
// exactly as MillerLoopMulti documents.
func productOfSingleLoops(ps []*G1, qs []*G2, loop func(*G1, *G2) *Fp12) *Fp12 {
	acc := Fp12One()
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		acc.Mul(acc, loop(ps[i], qs[i]))
	}
	return acc
}

func TestMillerLoopMultiMatchesSingle(t *testing.T) {
	r := testRand()
	for n := 1; n <= 5; n++ {
		ps := make([]*G1, n)
		qs := make([]*G2, n)
		for i := range ps {
			ps[i] = new(G1).ScalarBaseMult(randScalar(r))
			qs[i] = g2BaseMult(randScalar(r))
		}
		got := MillerLoopMulti(ps, qs)
		want := productOfSingleLoops(ps, qs, millerLoop)
		if !got.Equal(want) {
			t.Fatalf("lockstep Miller product diverges from per-pair oracle at n=%d", n)
		}
		// The reduced product must agree with the product of Pair values.
		gt := &GT{v: Fp12One()}
		for i := range ps {
			gt.Mul(gt, Pair(ps[i], qs[i]))
		}
		if !FinalExp(MillerLoopMulti(ps, qs)).Equal(gt) {
			t.Fatalf("the reduced lockstep product diverges from Π Pair at n=%d", n)
		}
	}
}

func TestMillerLoopMultiInfinity(t *testing.T) {
	r := testRand()
	p := new(G1).ScalarBaseMult(randScalar(r))
	q := g2BaseMult(randScalar(r))

	// All-trivial batches reduce to the identity.
	if !MillerLoopMulti(nil, nil).IsOne() {
		t.Fatal("empty batch should be the identity")
	}
	if !MillerLoopMulti([]*G1{G1Infinity()}, []*G2{q}).IsOne() {
		t.Fatal("infinity-only batch should be the identity")
	}
	if !FinalExp(MillerLoopMulti([]*G1{p}, []*G2{G2Infinity()})).IsOne() {
		t.Fatal("reduced infinity-only batch should be the identity")
	}

	// Trivial pairs interleaved with real ones must be skipped, not folded.
	ps := []*G1{p, G1Infinity(), p}
	qs := []*G2{q, q, G2Infinity()}
	if got, want := MillerLoopMulti(ps, qs), millerLoop(p, q); !got.Equal(want) {
		t.Fatal("interleaved infinity entries change the Miller product")
	}
}

func TestPairingCheckDegenerate(t *testing.T) {
	r := testRand()
	p := new(G1).ScalarBaseMult(randScalar(r))
	if PairingCheck([]*G1{p}, nil) {
		t.Fatal("length mismatch must reject")
	}
	if !PairingCheck(nil, nil) {
		t.Fatal("empty check must accept")
	}
	if !PairingCheck([]*G1{G1Infinity()}, []*G2{G2Infinity()}) {
		t.Fatal("all-trivial check must accept")
	}
}

// TestReducesToOne: Miller values computed apart (one of them, in McCLS, on
// an earlier call) and multiplied decide e(a·P, Q) = e(P, a·Q) with a single
// final exponentiation, agreeing with the comparison of the two GT values.
func TestReducesToOne(t *testing.T) {
	r := testRand()
	a := randScalar(r)
	p := new(G1).ScalarBaseMult(randScalar(r))
	q := g2BaseMult(randScalar(r))
	ap, aq := new(G1).ScalarMult(p, a), new(G2).ScalarMult(q, a)
	cached := MillerLoopMulti([]*G1{new(G1).Neg(p)}, []*G2{aq})

	before := ReadOpCounts()
	f := MillerLoopMulti([]*G1{ap}, []*G2{q})
	if !ReducesToOne(f.Mul(f, cached)) {
		t.Fatal("e(a·P, Q)·e(-P, a·Q) does not reduce to one")
	}
	if d := ReadOpCounts().Sub(before); d.Pairings != 1 || d.FinalExps != 1 {
		t.Fatalf("check cost %d Miller loops and %d final exps, want 1 and 1", d.Pairings, d.FinalExps)
	}
	f = MillerLoopMulti([]*G1{p}, []*G2{q})
	if ReducesToOne(f.Mul(f, cached)) || Pair(p, q).Equal(Pair(p, aq)) {
		t.Fatal("e(P, Q)·e(-P, a·Q) reduces to one")
	}
	if ReducesToOne(cached) {
		t.Fatal("a bare nontrivial Miller value reduces to one")
	}
	if !ReducesToOne(Fp12One()) {
		t.Fatal("the identity does not reduce to one")
	}
}

// TestMillerLoopMultiOpCounts pins the amortization the lockstep kernel
// exists for: a batch of n pairs costs ONE shared accumulator squaring per
// ate-loop iteration (len(ateNAF)-1 = 65 total, independent of n) while the
// line work — doubling steps, addition steps and sparse multiplications —
// scales with n exactly as in the single-pair loop.
func TestMillerLoopMultiOpCounts(t *testing.T) {
	r := testRand()
	const n = uint64(5)
	ps := make([]*G1, n)
	qs := make([]*G2, n)
	for i := range ps {
		ps[i] = new(G1).ScalarBaseMult(randScalar(r))
		qs[i] = g2BaseMult(randScalar(r))
	}

	iters, addsPerPair := ateLineCounts()

	before := ReadOpCounts()
	MillerLoopMulti(ps, qs)
	d := ReadOpCounts().Sub(before)

	if d.MillerSquarings != iters {
		t.Fatalf("batch of %d shared %d accumulator squarings, want %d (one per iteration)", n, d.MillerSquarings, iters)
	}
	if d.LineDoubles != n*iters {
		t.Fatalf("batch of %d ran %d doubling steps, want %d", n, d.LineDoubles, n*iters)
	}
	if d.LineAdds != n*addsPerPair {
		t.Fatalf("batch of %d ran %d addition steps, want %d", n, d.LineAdds, n*addsPerPair)
	}
	if want := n * (iters + addsPerPair); d.SparseMuls != want {
		t.Fatalf("batch of %d ran %d sparse multiplications, want %d", n, d.SparseMuls, want)
	}
	if d.Pairings != n {
		t.Fatalf("batch of %d counted %d pairings, want %d", n, d.Pairings, n)
	}

	// One pair through the same kernel pays the same squaring count alone —
	// the baseline the batch amortizes against.
	before = ReadOpCounts()
	MillerLoopMulti(ps[:1], qs[:1])
	d = ReadOpCounts().Sub(before)
	if d.MillerSquarings != iters {
		t.Fatalf("single Miller loop used %d accumulator squarings, want %d", d.MillerSquarings, iters)
	}
}

// TestPairAllocs pins the pairing path's allocations: the returned GT, its
// Fp12 and the Miller value — no per-call recoding of u, no per-pair slices
// for a single pair, no heap temporaries in the final exponentiation.
func TestPairAllocs(t *testing.T) {
	p := new(G1).ScalarBaseMult(big.NewInt(7))
	q := g2BaseMult(big.NewInt(11))
	if a := testing.AllocsPerRun(10, func() { Pair(p, q) }); a > 4 {
		t.Fatalf("Pair allocates %v times, want at most 4", a)
	}
}

// TestFinalExponentiationAllocs pins the final exponentiation and its
// cyclotomic squaring at zero allocations: the squaring kernel's Go side
// keeps its operands on the caller's stack.
func TestFinalExponentiationAllocs(t *testing.T) {
	f := MillerLoopMulti([]*G1{G1Generator()}, []*G2{g2BaseMult(big.NewInt(11))})
	var z, u Fp12
	u.easyPart(f)
	if a := testing.AllocsPerRun(10, func() { finalExponentiation(&z, f) }); a != 0 {
		t.Fatalf("finalExponentiation allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { u.CyclotomicSquare(&u) }); a != 0 {
		t.Fatalf("CyclotomicSquare allocates %v times, want 0", a)
	}
}

// TestScalarMultAllocs pins the variable-base walks at their measured
// allocation counts: GLV split, digit rows, odd-multiple tables and the
// batched normalisation all live on the stack, so a row buffer or table that
// escapes fails here. What is left is the *big.Int adapter's reduction of a
// negative scalar.
func TestScalarMultAllocs(t *testing.T) {
	p := new(G1).ScalarBaseMult(big.NewInt(7))
	q := g2BaseMult(big.NewInt(11))
	k := new(big.Int).Rsh(Order, 1)
	neg := big.NewInt(-1)
	var pts []*G2
	var ks []fr.Element
	for i := range 9 {
		pts = append(pts, g2BaseMult(big.NewInt(int64(13+i))))
		ks = append(ks, *frFromBig(new(big.Int).Rsh(Order, uint(i+1))))
	}
	var zp G1
	var zq G2
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"G2.ScalarMult", func() { zq.ScalarMult(q, k) }, 0},
		{"G2.ScalarMult(-1)", func() { zq.ScalarMult(q, neg) }, 2},
		{"G2.MultiScalarMultFr(2)", func() { zq.MultiScalarMultFr(pts[:2], ks[:2]) }, 0},
		{"G2.MultiScalarMultFr(9)", func() { zq.MultiScalarMultFr(pts, ks) }, 0},
		{"G2.IsInSubgroup", func() { q.IsInSubgroup() }, 0},
		{"G1.ScalarMult", func() { zp.ScalarMult(p, k) }, 0},
		{"G1.ScalarBaseMult", func() { zp.ScalarBaseMult(k) }, 0},
	} {
		if a := testing.AllocsPerRun(10, tc.run); a != tc.want {
			t.Errorf("%s allocates %v times, want %v", tc.name, a, tc.want)
		}
	}
}

// FuzzMillerLoopMultiVsSingle pins the lockstep kernel byte-identical to
// the product of per-pair millerLoop results (the same ateNAF walk, one pair
// at a time) on fuzzed batches, including infinity entries and length-1
// batches — and, after the final exponentiation, equal to the product of
// the affine, binary-loop millerLoopNaive values. The unreduced values of
// those two walks differ: the projective steps drop Fp2 denominators and a
// -Q step skips a vertical line, all factors in proper subfields of Fp12,
// which the easy part of the final exponentiation sends to 1.
func FuzzMillerLoopMultiVsSingle(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, byte(1), byte(0))
	f.Add([]byte{7, 7}, []byte{9}, byte(4), byte(1))
	f.Add([]byte{255}, []byte{255, 255}, byte(2), byte(2))
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte, nRaw, infMask byte) {
		n := int(nRaw%4) + 1 // batch sizes 1..4, so length-1 is fuzzed too
		a := new(big.Int).SetBytes(aBytes)
		b := new(big.Int).SetBytes(bBytes)
		ps := make([]*G1, n)
		qs := make([]*G2, n)
		for i := 0; i < n; i++ {
			ka := new(big.Int).Mod(new(big.Int).Add(a, big.NewInt(int64(i+1))), Order)
			kb := new(big.Int).Mod(new(big.Int).Add(b, big.NewInt(int64(3*i+1))), Order)
			ps[i] = new(G1).ScalarBaseMult(ka)
			qs[i] = g2BaseMult(kb)
			// Scalar 0 already yields infinity; the mask forces more.
			if infMask&(1<<uint(i)) != 0 {
				if i%2 == 0 {
					ps[i] = G1Infinity()
				} else {
					qs[i] = G2Infinity()
				}
			}
		}
		got := MillerLoopMulti(ps, qs)
		want := productOfSingleLoops(ps, qs, millerLoop)
		if !got.Equal(want) {
			t.Fatalf("lockstep product diverges: n=%d a=%v b=%v mask=%08b", n, a, b, infMask)
		}
		naive := productOfSingleLoops(ps, qs, millerLoopNaive)
		if !finalExponentiation(new(Fp12), got).Equal(finalExponentiation(new(Fp12), naive)) {
			t.Fatalf("reduced lockstep product diverges from the binary affine oracle: n=%d a=%v b=%v mask=%08b", n, a, b, infMask)
		}
	})
}
