package bn254

import (
	"bytes"
	"math/big"
	"testing"

	"mccls/internal/bn254/fr"
)

// endoEntry is the wire form of one fuzzed (point, scalar) pair: a point
// byte (0 the identity, otherwise (s & 0x7f)·G, negated when the top bit is
// set) and the two halves as 9 big-endian bytes each — 72 bits, past the
// 70 a 64-signature window's per-identity sums reach.
const endoEntry = 1 + 9 + 9

// endoCase packs (point byte, a, b) triples into fuzz input.
func endoCase(entries ...[3]uint64) []byte {
	var out []byte
	for _, e := range entries {
		out = append(out, byte(e[0]))
		for _, half := range e[1:] {
			out = append(out, 0)
			out = append(out, new(big.Int).SetUint64(half).FillBytes(make([]byte, 8))...)
		}
	}
	return out
}

// endoParse decodes at most 9 entries (one past jointSlice) into the
// scalars, their value a + b·λ mod r over math/big, and the point multipliers.
func endoParse(data []byte) (ws []EndoScalar, ks []*big.Int, mults []int64) {
	for ; len(data) >= endoEntry && len(ws) <= jointSlice; data = data[endoEntry:] {
		m := int64(data[0] & 0x7f)
		if data[0]&0x80 != 0 {
			m = -m
		}
		a, b := new(big.Int).SetBytes(data[1:10]), new(big.Int).SetBytes(data[10:19])
		la, lb := scalarLimbs(a), scalarLimbs(b)
		ws = append(ws, EndoScalar{A: [2]uint64{la[0], la[1]}, B: [2]uint64{lb[0], lb[1]}})
		k := new(big.Int).Mul(b, glvLambda)
		ks = append(ks, k.Add(k, a).Mod(k, Order))
		mults = append(mults, m)
	}
	return ws, ks, mults
}

// endoSeeds are the shared corpus: every branch of the ladder the batch
// verifier can reach, on both groups.
func endoSeeds(f *testing.F) {
	const max64 = ^uint64(0)
	f.Add(endoCase([3]uint64{1, 5, 7}), uint64(0))
	f.Add(endoCase([3]uint64{9, max64, max64}), uint64(1))
	f.Add(endoCase([3]uint64{0, 3, 4}, [3]uint64{2, 3, 4}), uint64(2))                         // identity input
	f.Add(endoCase([3]uint64{3, 0, max64}, [3]uint64{4, max64, 0}, [3]uint64{5, 0, 0}), max64) // zero halves, (0,0)
	f.Add(endoCase([3]uint64{6, 11, 13}, [3]uint64{6, 11, 13}), uint64(3))                     // repeated point: the doubling branch
	f.Add(endoCase([3]uint64{7, 11, 13}, [3]uint64{0x87, 11, 13}), uint64(4))                  // R, -R: the cancel branch
	wide := append([]byte{8}, bytes.Repeat([]byte{0x3f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 2)...)
	f.Add(wide, uint64(5)) // 70-bit halves
	var nine [][3]uint64
	for i := uint64(1); i <= jointSlice+1; i++ {
		nine = append(nine, [3]uint64{10 + i, max64 - i, i * i * 0x9e3779b97f4a7c15})
	}
	f.Add(endoCase(nine...), uint64(6)) // one point past a slice
	// For MultiScalarMultFr, whose scalars FuzzG2JointEndoVsNaive negates
	// by the bits of its second argument: r−1, zero and r−1 on the
	// identity; k·P − k·P on a repeated point; signs across a slice.
	f.Add(endoCase([3]uint64{1, 1, 0}, [3]uint64{2, 0, 0}, [3]uint64{0, 1, 0}), uint64(0b101))
	f.Add(endoCase([3]uint64{6, 11, 13}, [3]uint64{6, 11, 13}), uint64(0b10))
	f.Add(endoCase(nine...), uint64(0x155))
}

// FuzzG1JointEndoVsNaive drives the joint endomorphism ladder, alone
// (base 0) and under its fixed-base pass, against base·G - Σ kᵢ·Pᵢ with
// kᵢ = aᵢ + bᵢ·λ mod r over math/big, each term by the plain double-and-add
// ladder.
func FuzzG1JointEndoVsNaive(f *testing.F) {
	endoSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, base uint64) {
		ws, ks, mults := endoParse(data)
		want := G1Infinity()
		var pts []*G1
		for i, m := range mults {
			pts = append(pts, g1ScalarMultJac(G1Generator(), new(big.Int).Mod(big.NewInt(m), Order)))
			want.Add(want, g1ScalarMultJac(pts[i], ks[i]))
			if got := ws[i].Fr(); got.BigInt().Cmp(ks[i]) != 0 {
				t.Fatalf("EndoScalar.Fr = %v, want %v", got.BigInt(), ks[i])
			}
		}
		for _, k := range []uint64{0, base} {
			kFr := fr.NewElement(k)
			want := new(G1).Add(g1ScalarMultJac(G1Generator(), new(big.Int).SetUint64(k)), new(G1).Neg(want))
			if got := new(G1).ScalarBaseMultSubEndo(&kFr, pts, ws); !got.Equal(want) {
				t.Fatalf("%d·G - Σ diverges on %d points: got %v want %v", k, len(pts), got, want)
			}
		}
	})
}

// FuzzG2JointEndoVsNaive is the G2 counterpart, on subgroup points, with
// MultiScalarMultFr as a second arm on the same points: scalar i is
// wsᵢ.Fr(), negated when bit i of neg is set.
func FuzzG2JointEndoVsNaive(f *testing.F) {
	endoSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, neg uint64) {
		ws, ks, mults := endoParse(data)
		want, wantFr := G2Infinity(), G2Infinity()
		var pts []*G2
		var frs []fr.Element
		for i, m := range mults {
			pts = append(pts, g2ScalarMultJac(g2Gen, new(big.Int).Mod(big.NewInt(m), Order)))
			want.Add(want, g2ScalarMultJac(pts[i], ks[i]))
			k, kBig := ws[i].Fr(), new(big.Int).Set(ks[i])
			if neg>>i&1 == 1 {
				k.Neg(&k)
				kBig.Sub(Order, kBig).Mod(kBig, Order)
			}
			frs = append(frs, k)
			wantFr.Add(wantFr, g2ScalarMultJac(pts[i], kBig))
		}
		if got := new(G2).MultiScalarMultEndo(pts, ws); !got.Equal(want) {
			t.Fatalf("joint ladder diverges on %d points: got %v want %v", len(pts), got, want)
		}
		if got := new(G2).MultiScalarMultFr(pts, frs); !got.Equal(wantFr) {
			t.Fatalf("MultiScalarMultFr diverges on %d points (neg %#x): got %v want %v", len(pts), neg, got, wantFr)
		}
	})
}

// TestEndoScalarInjective pins the precondition of drawing batch weights as
// halves: no two pairs of 64-bit halves name the same scalar. A collision
// would be a nonzero vector of the GLV lattice with both coordinates below
// 2^64 in absolute value; every lattice vector (x, y) has r | x² - xy + y²
// (checked on the basis here), which is positive and at most 3·2^128 < r for
// such a vector. The basis itself is far longer than that.
func TestEndoScalarInjective(t *testing.T) {
	bound := new(big.Int).Lsh(big.NewInt(1), 65)
	for _, v := range glvBasis() {
		norm := new(big.Int).Mul(v[0], v[0])
		norm.Sub(norm, new(big.Int).Mul(v[0], v[1])).Add(norm, new(big.Int).Mul(v[1], v[1]))
		if norm.Sign() <= 0 || new(big.Int).Mod(norm, Order).Sign() != 0 {
			t.Fatalf("lattice vector (%v, %v): norm form %v is not a positive multiple of r", v[0], v[1], norm)
		}
		if new(big.Int).Abs(v[0]).Cmp(bound) <= 0 && new(big.Int).Abs(v[1]).Cmp(bound) <= 0 {
			t.Fatalf("lattice vector (%v, %v) is within 2^65 in max-norm", v[0], v[1])
		}
	}
	if new(big.Int).Lsh(big.NewInt(3), 128).Cmp(Order) >= 0 {
		t.Fatal("3·2^128 ≥ r: 64-bit halves could collide")
	}
	// λ itself is the pair (0, 1), and halves add without reduction.
	lambda := EndoScalar{B: [2]uint64{1}}
	if got := lambda.Fr(); got.BigInt().Cmp(glvLambda) != 0 {
		t.Fatalf("(0, 1) = %v, want λ", got.BigInt())
	}
	x := EndoScalar{A: [2]uint64{^uint64(0)}, B: [2]uint64{^uint64(0), 3}}
	var sum EndoScalar
	sum.Add(&x, &x)
	if want := (EndoScalar{A: [2]uint64{^uint64(0) - 1, 1}, B: [2]uint64{^uint64(0) - 1, 7}}); sum != want {
		t.Fatalf("Add = %v, want %v", sum, want)
	}
}
