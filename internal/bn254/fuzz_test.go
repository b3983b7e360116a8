package bn254

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"mccls/internal/bn254/fp"
)

// Fuzzers for the untrusted decode paths. Without -fuzz they run the seed
// corpus as regular tests; the invariants are "never panic" and "anything
// accepted re-encodes canonically".

func FuzzG1Unmarshal(f *testing.F) {
	f.Add(G1Generator().Marshal())
	f.Add(G1Infinity().Marshal())
	f.Add(make([]byte, 64))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p G1
		if err := p.Unmarshal(data); err != nil {
			return
		}
		if !p.IsOnCurve() {
			t.Fatal("accepted off-curve point")
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatal("accepted non-canonical encoding")
		}
	})
}

// FuzzG2Unmarshal drives both G2 decodes: UnmarshalOnCurve accepts exactly
// the canonical encodings of points of the twist, Unmarshal exactly those
// of them in the subgroup (or the identity). The seeds include a twist
// point off the subgroup, which only the curve-only decode accepts.
func FuzzG2Unmarshal(f *testing.F) {
	f.Add(G2Generator().Marshal())
	f.Add(G2Infinity().Marshal())
	f.Add(make([]byte, 128))
	for counter := uint32(0); ; counter++ {
		if q := hashToTwist("fuzz", []byte("off-subgroup"), counter); q != nil {
			f.Add(q.Marshal())
			break
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c, p G2
		errC, errP := c.UnmarshalOnCurve(data), p.Unmarshal(data)
		if errC == nil {
			if !c.IsOnCurve() {
				t.Fatal("curve-only decode accepted an off-curve point")
			}
			if !bytes.Equal(c.Marshal(), data) {
				t.Fatal("curve-only decode accepted a non-canonical encoding")
			}
		}
		if want := errC == nil && (c.IsInfinity() || c.IsInSubgroup()); (errP == nil) != want {
			t.Fatalf("Unmarshal says %v, curve-only decode %v and subgroup membership %v", errP, errC, want)
		}
		if errP == nil && !p.Equal(&c) {
			t.Fatal("the two decodes disagree on an accepted point")
		}
	})
}

// fuzzFpSeed packs two big.Ints into fixed 32-byte seeds. Values up to
// 2^256-1 fit; FillBytes panics beyond that, which no seed reaches.
func fuzzFpSeed(f *testing.F, a, b *big.Int) {
	var ab, bb [32]byte
	a.FillBytes(ab[:])
	b.FillBytes(bb[:])
	f.Add(ab[:], bb[:])
}

// FuzzFpVsBigInt differentially fuzzes the fixed-width Montgomery Fp
// arithmetic against the math/big oracle retained in fpref_test.go. Inputs
// are raw 32-byte strings; values ≥ p are first shown to be non-canonical
// (so every decode boundary rejects them) and then reduced so the
// arithmetic itself is still exercised on the reduced residues.
func FuzzFpVsBigInt(f *testing.F) {
	pm1 := new(big.Int).Sub(P, big.NewInt(1))
	max256 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	fuzzFpSeed(f, big.NewInt(0), big.NewInt(1))
	fuzzFpSeed(f, pm1, pm1)
	fuzzFpSeed(f, new(big.Int).Set(P), big.NewInt(2))
	fuzzFpSeed(f, max256, pm1)
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte) {
		aBig := new(big.Int).SetBytes(aBytes)
		bBig := new(big.Int).SetBytes(bBytes)
		for _, v := range []*big.Int{aBig, bBig} {
			if v.BitLen() <= 256 {
				// The decode boundary itself: accepted iff below p, and then
				// the same element SetBigInt builds.
				var raw [32]byte
				v.FillBytes(raw[:])
				var d fp.Element
				if ok := d.SetBytesCanonical(raw[:]); ok != (v.Cmp(P) < 0) {
					t.Fatalf("SetBytesCanonical(%v) = %v", v, ok)
				} else if ok && d.BigInt().Cmp(v) != 0 {
					t.Fatalf("SetBytesCanonical(%v) decoded %v", v, d.BigInt())
				}
			}
			if v.Cmp(P) >= 0 && v.BitLen() <= 256 {
				// An out-of-range value must never round-trip: SetBigInt
				// reduces, so its canonical encoding differs from the raw
				// input and decoders comparing canonical bytes reject it.
				var e fp.Element
				e.SetBigInt(v)
				var raw [32]byte
				v.FillBytes(raw[:])
				if e.Bytes() == raw {
					t.Fatalf("value ≥ p round-tripped canonically: %v", v)
				}
			}
		}
		aBig.Mod(aBig, P)
		bBig.Mod(bBig, P)
		var a, b fp.Element
		a.SetBigInt(aBig)
		b.SetBigInt(bBig)
		check := func(op string, got *fp.Element, want *big.Int) {
			if got.BigInt().Cmp(want) != 0 {
				t.Fatalf("%s mismatch: a=%v b=%v got=%v want=%v", op, aBig, bBig, got.BigInt(), want)
			}
		}
		var z fp.Element
		check("add", z.Add(&a, &b), fpAddRef(aBig, bBig))
		check("sub", z.Sub(&a, &b), fpSubRef(aBig, bBig))
		check("mul", z.Mul(&a, &b), fpMulRef(aBig, bBig))
		check("square", z.Square(&a), fpMulRef(aBig, aBig))
		check("neg", z.Neg(&a), fpNegRef(aBig))
		check("double", z.Double(&b), fpAddRef(bBig, bBig))
		wantInv := fpInvRef(aBig)
		if ok := z.Inverse(&a); ok != (wantInv != nil) {
			t.Fatalf("inverse ok mismatch for %v: got %v", aBig, ok)
		} else if ok {
			check("inv", &z, wantInv)
		}
		// Canonical byte round trip.
		var rt fp.Element
		rt.SetBigInt(new(big.Int).SetBytes(func() []byte { x := a.Bytes(); return x[:] }()))
		if !rt.Equal(&a) {
			t.Fatalf("byte round trip mismatch for %v", aBig)
		}
	})
}

// FuzzFp2VsBigInt does the same for the quadratic extension, driving the
// tower arithmetic (and thus everything the pairing is built from) against
// the fp2Ref oracle.
func FuzzFp2VsBigInt(f *testing.F) {
	pm1 := new(big.Int).Sub(P, big.NewInt(1))
	max256 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	seed := func(c0a, c1a, c0b, c1b *big.Int) {
		var w [4][32]byte
		for i, v := range []*big.Int{c0a, c1a, c0b, c1b} {
			v.FillBytes(w[i][:])
		}
		f.Add(w[0][:], w[1][:], w[2][:], w[3][:])
	}
	seed(big.NewInt(0), big.NewInt(0), big.NewInt(1), big.NewInt(0))
	seed(pm1, pm1, big.NewInt(1), pm1)
	seed(new(big.Int).Set(P), big.NewInt(9), big.NewInt(1), max256)
	f.Fuzz(func(t *testing.T, c0a, c1a, c0b, c1b []byte) {
		ar := newFp2Ref(new(big.Int).SetBytes(c0a), new(big.Int).SetBytes(c1a))
		br := newFp2Ref(new(big.Int).SetBytes(c0b), new(big.Int).SetBytes(c1b))
		a, b := ar.toFp2(), br.toFp2()
		check := func(op string, got *Fp2, want *fp2Ref) {
			if !want.equalFp2(got) {
				t.Fatalf("%s mismatch: got (%s,%s) want (%v,%v)",
					op, got.C0.BigInt(), got.C1.BigInt(), want.c0, want.c1)
			}
		}
		check("add", new(Fp2).Add(a, b), new(fp2Ref).add(ar, br))
		check("sub", new(Fp2).Sub(a, b), new(fp2Ref).sub(ar, br))
		check("mul", new(Fp2).Mul(a, b), new(fp2Ref).mul(ar, br))
		check("square", new(Fp2).Square(a), new(fp2Ref).mul(ar, ar))
		wantInv := new(fp2Ref).inv(ar)
		if a.IsZero() != (wantInv == nil) {
			t.Fatalf("inverse zero detection mismatch")
		}
		if wantInv != nil {
			check("inv", new(Fp2).Inverse(a), wantInv)
			// a · a⁻¹ = 1 closes the loop entirely inside the new code.
			prod := new(Fp2).Mul(a, new(Fp2).Inverse(a))
			if !prod.IsOne() {
				t.Fatal("a·a⁻¹ != 1")
			}
		}
	})
}

// fp12FromBytes reads up to twelve 32-byte big-endian coefficients (the
// GT.Marshal layout: C[0].C0, C[0].C1, C[1].C0, …), each reduced modulo p;
// missing bytes read as zero, so short inputs give sparse elements.
func fp12FromBytes(b []byte) *Fp12 {
	z := &Fp12{}
	for k := 0; k < 12 && 32*k < len(b); k++ {
		c := new(big.Int).SetBytes(b[32*k : min(32*k+32, len(b))])
		if k%2 == 0 {
			z.C[k/2].C0.SetBigInt(c)
		} else {
			z.C[k/2].C1.SetBigInt(c)
		}
	}
	return z
}

// FuzzFp12TowerVsSchoolbook differentially fuzzes the Fp6-view kernels —
// Karatsuba Mul, complex-method Square, tower Inverse — against the
// schoolbook convolution and the Galois-norm inverse they replaced
// (oracle_test.go), under every receiver/operand aliasing the callers use.
func FuzzFp12TowerVsSchoolbook(f *testing.F) {
	r := rand.New(rand.NewSource(17))
	dense := func() *Fp12 { return randFp12(r) }
	enc := func(x *Fp12) []byte { return (&GT{v: x}).Marshal() }
	qm1 := new(big.Int).Sub(P, big.NewInt(1))
	allQm1 := &Fp12{}
	for k := range allQm1.C {
		allQm1.C[k] = *fp2FromBig(qm1, qm1)
	}
	line := &Fp12{}
	line.C[0], line.C[1], line.C[3] = *randFp2(r), *randFp2(r), *randFp2(r)

	f.Add([]byte{}, enc(dense()))       // 0
	f.Add(enc(Fp12One()), enc(dense())) // 1
	f.Add(enc(allQm1), enc(allQm1))     // every limb pattern at its maximum
	f.Add(enc(line), enc(dense()))      // Miller-line shape
	f.Add(enc(dense()), enc(line))
	for k := 0; k < 6; k++ { // w^k monomials: each wrap of the reduction w^6 = xi
		mono := &Fp12{}
		mono.C[k] = *Fp2One()
		f.Add(enc(mono), enc(dense()))
		f.Add(enc(dense()), enc(mono))
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		x, y := fp12FromBytes(xb), fp12FromBytes(yb)

		want := fp12MulSchoolbook(x, y)
		if !new(Fp12).Mul(x, y).Equal(want) {
			t.Fatal("Mul diverges from the schoolbook product")
		}
		if z := new(Fp12).Set(x); !z.Mul(z, y).Equal(want) {
			t.Fatal("Mul with z == x diverges")
		}
		if z := new(Fp12).Set(y); !z.Mul(x, z).Equal(want) {
			t.Fatal("Mul with z == y diverges")
		}

		wantSq := fp12SquareSchoolbook(x)
		if !wantSq.Equal(fp12MulSchoolbook(x, x)) {
			t.Fatal("schoolbook oracles disagree with each other")
		}
		if !new(Fp12).Square(x).Equal(wantSq) || !new(Fp12).Mul(x, x).Equal(wantSq) {
			t.Fatal("Square or Mul with x == y diverges from the schoolbook square")
		}
		if z := new(Fp12).Set(x); !z.Square(z).Equal(wantSq) {
			t.Fatal("Square with z == x diverges")
		}
		if z := new(Fp12).Set(x); !z.Mul(z, z).Equal(wantSq) {
			t.Fatal("Mul with z == x == y diverges")
		}

		if x.Equal(&Fp12{}) {
			defer func() {
				if recover() == nil {
					t.Fatal("Inverse(0) did not panic")
				}
			}()
			new(Fp12).Inverse(x)
			return
		}
		inv := new(Fp12).Inverse(x)
		if !fp12MulSchoolbook(inv, x).IsOne() || !new(Fp12).Mul(inv, x).IsOne() {
			t.Fatal("Inverse(x)·x != 1")
		}
		if !inv.Equal(fp12InverseNorm(x)) {
			t.Fatal("Inverse diverges from the Galois-norm inverse")
		}
		if z := new(Fp12).Set(x); !z.Inverse(z).Equal(inv) {
			t.Fatal("Inverse with z == x diverges")
		}
	})
}
