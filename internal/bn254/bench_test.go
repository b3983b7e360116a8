package bn254

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// Micro-benchmarks for the pairing substrate, including the Miller-loop vs
// final-exponentiation split called out as an ablation in DESIGN.md §5.

func benchPoints(b *testing.B) (*G1, *G2) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	p := new(G1).ScalarBaseMult(new(big.Int).Rand(r, Order))
	q := g2BaseMult(new(big.Int).Rand(r, Order))
	return p, q
}

// BenchmarkFpMul measures one Montgomery CIOS multiplication. The whole
// point of the fixed-width refactor is that this is allocation-free: the
// acceptance bar is 0 allocs/op.
func BenchmarkFpMul(b *testing.B) {
	var x, y, z fp.Element
	x.SetUint64(0xdeadbeefcafe)
	y.SetBigInt(new(big.Int).Rand(rand.New(rand.NewSource(5)), P))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
		x.Add(&z, &y)
	}
}

func BenchmarkPairing(b *testing.B) {
	p, q := benchPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	p, q := benchPoints(b)
	ps, qs := []*G1{p}, []*G2{q}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MillerLoopMulti(ps, qs)
	}
}

// BenchmarkMillerLoopLines is BenchmarkMillerLoop's pair with q's line
// table built once: the per-packet cost of a known signer's S.
func BenchmarkMillerLoopLines(b *testing.B) {
	p, q := benchPoints(b)
	lines := NewG2Lines(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines.MillerLoop(p)
	}
}

// BenchmarkNewG2Lines is the one-off build an accepted pair pays at its
// second sighting.
func BenchmarkNewG2Lines(b *testing.B) {
	_, q := benchPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewG2Lines(q)
	}
}

// BenchmarkFinalExponentiation/interleaved is the final exponentiation.
// /ops-grouped computes no final exponentiation: it runs the same operation
// multiset grouped by kind (the easy part, the 20 conjugations and 7
// Frobenius maps, the 193 cyclotomic squarings, then the 61 multiplications),
// so each kernel runs hot in turn. It is the front-end floor the interleaved
// chain is compared with: the gap is what the kernels pay for evicting each
// other from the instruction cache.
func BenchmarkFinalExponentiation(b *testing.B) {
	p, q := benchPoints(b)
	f := MillerLoopMulti([]*G1{p}, []*G2{q})
	b.Run("interleaved", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			finalExponentiation(new(Fp12), f)
		}
	})
	b.Run("ops-grouped", func(b *testing.B) {
		var r, t Fp12
		for range b.N {
			r.easyPart(f)
			for range 20 {
				t.Conjugate(&r)
			}
			for _, n := range []int{1, 2, 1, 1, 1, 1, 2} {
				t.FrobeniusN(&r, n)
			}
			for range 193 {
				r.CyclotomicSquare(&r)
			}
			for range 61 {
				r.Mul(&r, &t)
			}
		}
	})
}

func BenchmarkG1ScalarMult(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	k := new(big.Int).Rand(r, Order)
	g := G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).ScalarMult(g, k)
	}
}

func BenchmarkG1ScalarBaseMult(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	k := new(big.Int).Rand(r, Order)
	PrecomputeFixedBase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).ScalarBaseMult(k)
	}
}

// BenchmarkEqualBaseMultAddMany prices a block of n fixed-base compares
// a = k·G + q through the shared-inversion tree, per scalar (ns/scalar),
// beside the Jacobian walk per index (walk).
func BenchmarkEqualBaseMultAddMany(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	PrecomputeFixedBase()
	zs, ks, qs := make([]*G1, BaseMultAddBlock), make([]fr.Element, BaseMultAddBlock), make([]*G1, BaseMultAddBlock)
	for i := range ks {
		ks[i].SetBigInt(new(big.Int).Rand(r, Order))
		qs[i] = new(G1).ScalarBaseMult(new(big.Int).Rand(r, Order))
		zs[i] = new(G1).ScalarBaseMultAddFr(&ks[i], qs[i])
	}
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for range b.N {
				EqualBaseMultAddMany(zs[:n], ks[:n], qs[:n])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/scalar")
		})
	}
	b.Run("walk", func(b *testing.B) {
		for i := range b.N {
			equalWalk(zs[i%BaseMultAddBlock], &ks[i%BaseMultAddBlock], qs[i%BaseMultAddBlock])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/scalar")
	})
}

func BenchmarkG2ScalarMult(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	k := new(big.Int).Rand(r, Order)
	g := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G2).ScalarMult(g, k)
	}
}

func BenchmarkG2IsInSubgroup(b *testing.B) {
	_, q := benchPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.IsInSubgroup() {
			b.Fatal("subgroup point rejected")
		}
	}
}

// BenchmarkHashToG2 prices the exact H1, c′·HashToG2Short, which only the
// comparison schemes pay; BenchmarkHashToG2Short the short form McCLS pays.
func BenchmarkHashToG2(b *testing.B) {
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashToG2("bench", msg)
	}
}

func BenchmarkHashToG2Short(b *testing.B) {
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashToG2Short("bench", msg)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	p, q := benchPoints(b)
	f := millerLoop(p, q)
	g := new(Fp12).Mul(f, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Fp12).Mul(f, g)
	}
}

func BenchmarkGTExp(b *testing.B) {
	p, q := benchPoints(b)
	gt := Pair(p, q)
	k := new(big.Int).Rand(rand.New(rand.NewSource(4)), Order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(GT).Exp(gt, frFromBig(k))
	}
}

// BenchmarkFp2 prices each Fp2 operation the tower is built from, one
// result feeding the next so nothing is hoisted out of the loop.
func BenchmarkFp2(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	var x, y Fp2
	x.C0.SetBigInt(new(big.Int).Rand(r, P))
	x.C1.SetBigInt(new(big.Int).Rand(r, P))
	y.C0.SetBigInt(new(big.Int).Rand(r, P))
	y.C1.SetBigInt(new(big.Int).Rand(r, P))
	for _, bc := range []struct {
		name string
		op   func(z *Fp2)
	}{
		{"add", func(z *Fp2) { z.Add(z, &y) }},
		{"double", func(z *Fp2) { z.Double(z) }},
		{"mulByXi", func(z *Fp2) { z.MulByXi(z) }},
		{"square", func(z *Fp2) { z.Square(z) }},
		{"mul", func(z *Fp2) { z.Mul(z, &y) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			z := x
			for range b.N {
				bc.op(&z)
			}
		})
	}
}

// BenchmarkCyclotomicSquare is one squaring of the final exponentiation's
// hard part, on a unitary element.
func BenchmarkCyclotomicSquare(b *testing.B) {
	p, q := benchPoints(b)
	u := new(Fp12).easyPart(millerLoop(p, q))
	b.ResetTimer()
	for range b.N {
		u.CyclotomicSquare(u)
	}
}

// BenchmarkFp12Square is one Miller-loop squaring of the accumulator.
func BenchmarkFp12Square(b *testing.B) {
	p, q := benchPoints(b)
	f := millerLoop(p, q)
	b.ResetTimer()
	for range b.N {
		f.Square(f)
	}
}

// BenchmarkMulBySparse folds one line into the accumulator: /plain a
// doubling line evaluated at p, the 18-product fold MillerLoopMulti pays per
// line, and /replayed a line table's normalised line, 12 products.
func BenchmarkMulBySparse(b *testing.B) {
	p, q := benchPoints(b)
	f := millerLoop(p, q)
	var l lineEval
	var t g2Proj
	t.fromAffine(q)
	t.doubleStepProj(&l)
	l.at(p)
	b.Run("plain", func(b *testing.B) {
		for range b.N {
			f.mulByLine(&l)
		}
	})
	n := &NewG2Lines(q).lines[0]
	b.Run("replayed", func(b *testing.B) {
		for range b.N {
			f.mulBySparse(nil, &n[0], &n[1])
		}
	})
}
