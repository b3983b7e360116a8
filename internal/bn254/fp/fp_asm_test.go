package fp

import (
	"math/big"
	"testing"
)

// This file pins the platform kernels to the portable CIOS oracle. On
// amd64 with ADX the dispatched Mul/Add/... run assembly while the
// *Generic functions run the original Go code, so every comparison is a
// real cross-implementation check; under purego both sides are the same
// code and the tests degenerate to self-consistency (the purego CI leg
// still exercises them against the big.Int oracle in fp_test.go).

// asmEdgeElements returns Montgomery-limb patterns that stress the
// carry chains: 0, 1 (= R mod q), q−1 bits, R² limbs, single maxed
// limbs, and the largest canonical value q−1.
func asmEdgeElements() []Element {
	qm1 := Element{q0 - 1, q1, q2, q3} // q−1 as raw limbs (canonical)
	return []Element{
		{},           // 0
		one,          // Montgomery 1 = R mod q
		rSquare,      // R² mod q
		qm1,          // q−1: every limb near the modulus
		{1, 0, 0, 0}, // smallest nonzero limb pattern
		{0xffffffffffffffff, 0, 0, 0},
		{0, 0xffffffffffffffff, 0, 0},
		{0, 0, 0xffffffffffffffff, 0},
		{0, 0, 0, 0x30644e72e131a028}, // top limb just under q3
		{0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff, 0x30644e72e131a028},
		{q0, q1, q2, q3 - 1}, // q minus 2^192: mid-range carries
		{0xaaaaaaaaaaaaaaaa, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa, 0x0555555555555555},
	}
}

func TestFpAsmEdgeVectors(t *testing.T) {
	edges := asmEdgeElements()
	for i, x := range edges {
		for j, y := range edges {
			var fast, slow Element
			mul(&fast, &x, &y)
			mulGeneric(&slow, &x, &y)
			if fast != slow {
				t.Fatalf("mul mismatch at edge (%d,%d): asm=%v generic=%v", i, j, fast, slow)
			}
			add(&fast, &x, &y)
			addGeneric(&slow, &x, &y)
			if fast != slow {
				t.Fatalf("add mismatch at edge (%d,%d)", i, j)
			}
			sub(&fast, &x, &y)
			subGeneric(&slow, &x, &y)
			if fast != slow {
				t.Fatalf("sub mismatch at edge (%d,%d)", i, j)
			}
			var wf Wide
			mulWide(&wf, &x, &y)
			var ws Wide
			mulWideGeneric(&ws, &x, &y)
			if wf != ws {
				t.Fatalf("mulWide mismatch at edge (%d,%d): asm=%v generic=%v", i, j, wf, ws)
			}
			var rf, rs Element
			reduceWide(&rf, &wf)
			reduceWideGeneric(&rs, &ws)
			if rf != rs {
				t.Fatalf("reduceWide mismatch at edge (%d,%d)", i, j)
			}
		}
		var fast, slow Element
		square(&fast, &x)
		squareGeneric(&slow, &x)
		if fast != slow {
			t.Fatalf("square mismatch at edge %d", i)
		}
		neg(&fast, &x)
		negGeneric(&slow, &x)
		if fast != slow {
			t.Fatalf("neg mismatch at edge %d", i)
		}
		double(&fast, &x)
		doubleGeneric(&slow, &x)
		if fast != slow {
			t.Fatalf("double mismatch at edge %d", i)
		}
	}
}

// TestWideRoundTrip checks MulWide+Reduce against Mul directly:
// reducing the bare product must equal the CIOS Montgomery product.
func TestWideRoundTrip(t *testing.T) {
	edges := asmEdgeElements()
	for i, x := range edges {
		for j, y := range edges {
			var w Wide
			w.Mul(&x, &y)
			var got, want Element
			w.Reduce(&got)
			want.Mul(&x, &y)
			if got != want {
				t.Fatalf("wide round-trip mismatch at (%d,%d): got %v want %v", i, j, got, want)
			}
		}
	}
}

// TestWideAccumulationBounds drives the Reduce contract to each lazy site's
// peak, in q²-units (DESIGN's budget table): n single products of (q−1)²,
// plus q² pads, checked against big.Int on the dispatched and the generic
// path. The contract edge itself is 12 products plus 3 pads ≈ 15 q² < 4qR.
func TestWideAccumulationBounds(t *testing.T) {
	qm1 := Element{q0 - 1, q1, q2, q3}
	var prod Wide
	prod.Mul(&qm1, &qm1)
	prodBig := new(big.Int).Mul(new(big.Int).Sub(qBig, big.NewInt(1)), new(big.Int).Sub(qBig, big.NewInt(1)))
	q2Big := new(big.Int).Mul(qBig, qBig)
	bound := new(big.Int).Mul(qBig, new(big.Int).Lsh(big.NewInt(1), 258)) // 4qR = q·2^258
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), qBig)
	for _, site := range []struct {
		name           string
		products, pads int
	}{
		{"fpMulE6, fpMulE12, plain fpMulBySparse: 3 Karatsuba products", 6, 1},
		{"replayed fpMulBySparse: 2 Karatsuba products", 4, 1},
		{"fpCycSquare: R0 + 9I0 + q² − I1", 13, 1},
		{"schoolbook Fp12 oracle: 6 products", 12, 1},
		{"contract edge", 12, 3},
	} {
		var acc Wide
		accBig := new(big.Int)
		for range site.products {
			acc.add(&prod)
			accBig.Add(accBig, prodBig)
		}
		for range site.pads {
			acc.addQSquared()
			accBig.Add(accBig, q2Big)
		}
		if accBig.Cmp(bound) >= 0 {
			t.Fatalf("%s: accumulation exceeds the 4qR contract", site.name)
		}
		// Reduce performs one REDC, so the result limbs hold acc·R⁻¹ mod q
		// (still in Montgomery form relative to the original operands).
		var got, gotGeneric Element
		acc.Reduce(&got)
		want := new(big.Int).Mul(accBig, rInv)
		want.Mod(want, qBig)
		if got != bigToLimbs(want) {
			t.Fatalf("%s: Reduce wrong: got %x want %x", site.name, got, bigToLimbs(want))
		}
		reduceWideGeneric(&gotGeneric, &acc)
		if gotGeneric != got {
			t.Fatalf("%s: generic reduceWide disagrees with the dispatched path", site.name)
		}
	}
}

// TestLooseAddExact checks looseAdd is the plain integer sum (< 2q
// fits four limbs).
func TestLooseAddExact(t *testing.T) {
	qm1 := Element{q0 - 1, q1, q2, q3}
	var l Element
	looseAdd(&l, &qm1, &qm1)
	want := new(big.Int).Sub(qBig, big.NewInt(1))
	want.Lsh(want, 1)
	var buf [32]byte
	want.FillBytes(buf[:])
	got := bigToLimbs(want)
	_ = buf
	if l != got {
		t.Fatalf("looseAdd not the integer sum: got %v want %v", l, got)
	}
}

// qHalf = (q-1)/2 as plain limbs, the Euler-criterion exponent the
// windowed chain is pinned on: q is odd, so it is q shifted right once.
var qHalf = [4]uint64{q0>>1 | q1&1<<63, q1>>1 | q2&1<<63, q2>>1 | q3&1<<63, q3 >> 1}

// TestExpFixedVsBigLadder pins the fixed windowed chain against the
// big.Int square-and-multiply ladder on the runtime exponents (q-1)/2 and
// (q-3)/4, and Sqrt against big.Jacobi: a root exactly for the squares,
// itself a square, with w its inverse.
func TestExpFixedVsBigLadder(t *testing.T) {
	half := new(big.Int).Rsh(qBig, 1)
	quarter := new(big.Int).Rsh(qBig, 2)
	if bigToLimbs(half) != Element(qHalf) || bigToLimbs(quarter) != Element(qQuarter) {
		t.Fatal("qHalf is not (q-1)/2 or qQuarter is not (q-3)/4")
	}
	vals := asmEdgeElements()
	for i := range 64 {
		var x Element
		x.SetUint64(uint64(i))
		vals = append(vals, x)
	}
	for i, x := range vals {
		for _, e := range []struct {
			limbs *[4]uint64
			big   *big.Int
		}{{&qHalf, half}, {&qQuarter, quarter}} {
			var chain, ladder Element
			chain.expFixed(&x, e.limbs)
			ladder.Exp(&x, e.big)
			if chain != ladder {
				t.Fatalf("expFixed(%v) mismatch at %d", e.big, i)
			}
		}
		var z, w, c Element
		ok := z.Sqrt(&w, &x)
		if want := big.Jacobi(x.BigInt(), qBig) >= 0; ok != want {
			t.Fatalf("Sqrt reports %v at %d, Jacobi says %v", ok, i, want)
		}
		if !ok {
			continue
		}
		if !c.Square(&z).Equal(&x) || big.Jacobi(z.BigInt(), qBig) < 0 {
			t.Fatalf("Sqrt at %d: %v is not the square root that is a square", i, z)
		}
		if !x.IsZero() && !c.Mul(&z, &w).IsOne() {
			t.Fatalf("Sqrt at %d: w is not 1/z", i)
		}
	}
}

// TestInverseAllocFree pins the satellite requirement: the runtime
// Inverse path allocates nothing (no math/big).
func TestInverseAllocFree(t *testing.T) {
	x := NewElement(0xdeadbeef12345678)
	var z Element
	if n := testing.AllocsPerRun(10, func() {
		z.Inverse(&x)
	}); n != 0 {
		t.Fatalf("Inverse allocates %v times per op, want 0", n)
	}
	var y Element
	y.SetUint64(3)
	if n := testing.AllocsPerRun(10, func() {
		z.Mul(&x, &y)
		z.Add(&z, &y)
		z.Sub(&z, &x)
	}); n != 0 {
		t.Fatalf("Mul/Add/Sub allocate %v times per op, want 0", n)
	}
}

// FuzzFpMulAsmVsGeneric differentially fuzzes the dispatched kernels
// (assembly when available) against the portable CIOS oracle over raw
// limb inputs reduced into range.
func FuzzFpMulAsmVsGeneric(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(q0-1), uint64(q1), uint64(q2), uint64(q3), uint64(q0-1), uint64(q1), uint64(q2), uint64(q3))
	f.Add(one[0], one[1], one[2], one[3], rSquare[0], rSquare[1], rSquare[2], rSquare[3])
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(0), uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, y0, y1, y2, y3 uint64) {
		x := Element{x0, x1, x2, x3}
		y := Element{y0, y1, y2, y3}
		// Clamp into canonical range the same way for both paths.
		x.reduce()
		y.reduce()
		var fast, slow Element
		mul(&fast, &x, &y)
		mulGeneric(&slow, &x, &y)
		if fast != slow {
			t.Fatalf("mul mismatch: x=%v y=%v asm=%v generic=%v", x, y, fast, slow)
		}
		square(&fast, &x)
		squareGeneric(&slow, &x)
		if fast != slow {
			t.Fatalf("square mismatch: x=%v", x)
		}
		add(&fast, &x, &y)
		addGeneric(&slow, &x, &y)
		if fast != slow {
			t.Fatalf("add mismatch: x=%v y=%v", x, y)
		}
		sub(&fast, &x, &y)
		subGeneric(&slow, &x, &y)
		if fast != slow {
			t.Fatalf("sub mismatch: x=%v y=%v", x, y)
		}
		neg(&fast, &x)
		negGeneric(&slow, &x)
		if fast != slow {
			t.Fatalf("neg mismatch: x=%v", x)
		}
		double(&fast, &x)
		doubleGeneric(&slow, &x)
		if fast != slow {
			t.Fatalf("double mismatch: x=%v", x)
		}
	})
}

// FuzzFpWideAsmVsGeneric differentially fuzzes the lazy-reduction
// primitives: the wide product over loose (unreduced 4-limb) operands
// and full-width REDC over arbitrary in-contract accumulators.
func FuzzFpWideAsmVsGeneric(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, y0, y1, y2, y3 uint64) {
		// MulWide is a raw integer product: exercise it on the full
		// 4-limb domain, not just canonical elements.
		x := Element{x0, x1, x2, x3}
		y := Element{y0, y1, y2, y3}
		var wf, ws Wide
		mulWide(&wf, &x, &y)
		mulWideGeneric(&ws, &x, &y)
		if wf != ws {
			t.Fatalf("mulWide mismatch: x=%v y=%v asm=%v generic=%v", x, y, wf, ws)
		}
		// Build an in-contract accumulator (< 4qR) from canonical
		// products and compare REDC paths.
		x.reduce()
		y.reduce()
		var acc Wide
		acc.Mul(&x, &y)
		var p Wide
		p.Mul(&y, &y)
		for k := 0; k < 11; k++ {
			acc.add(&p)
		}
		acc.addQSquared()
		var rf, rs Element
		reduceWide(&rf, &acc)
		reduceWideGeneric(&rs, &acc)
		if rf != rs {
			t.Fatalf("reduceWide mismatch on acc=%v", acc)
		}
	})
}
