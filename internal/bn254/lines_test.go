package bn254

import (
	"math/big"
	"testing"
)

// millerRatioInFp2 reports whether f·g⁻¹ lies in Fp2 (its w¹…w⁵
// coefficients are zero): the exact, pre-exponentiation relation between
// MillerLoopMulti and a replay of the same point's line table.
func millerRatioInFp2(f, g *Fp12) bool {
	ratio := new(Fp12).Inverse(g)
	ratio.Mul(ratio, f)
	for k := 1; k < 6; k++ {
		if !ratio.C[k].IsZero() {
			return false
		}
	}
	return true
}

// replay is Verify's hit path: the table's replay at p.
func replay(p *G1, t *G2Lines) *Fp12 { return t.MillerLoop(p) }

// FuzzMillerLoopLinesVsMulti holds one table's replay to MillerLoopMulti
// over the same pair: p = a·G, q = b·G2 (scalar 0 is infinity on either
// side), an odd inf putting infinity on the G1 side. The unreduced values
// differ by a factor in Fp2 — checked exactly, before any exponentiation —
// and are equal after finalExponentiation.
func FuzzMillerLoopLinesVsMulti(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, byte(0))
	f.Add([]byte{7, 7}, []byte{9}, byte(1))
	f.Add([]byte{255}, []byte{255, 255}, byte(2))
	f.Add([]byte{3}, []byte{}, byte(0)) // q = ∞: the zero table
	f.Add([]byte{}, []byte{5}, byte(3)) // p = ∞ twice over
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte, inf byte) {
		a, b := new(big.Int).SetBytes(aBytes), new(big.Int).SetBytes(bBytes)
		p, q := new(G1).ScalarBaseMult(a.Mod(a, Order)), g2BaseMult(b.Mod(b, Order))
		if inf%2 == 1 {
			p = G1Infinity()
		}
		lines := NewG2Lines(q)
		if lines == nil {
			t.Fatalf("no line table for a subgroup point: b=%v", b)
		}
		multi, replayed := MillerLoopMulti([]*G1{p}, []*G2{q}), replay(p, lines)
		if !millerRatioInFp2(multi, replayed) {
			t.Fatalf("replay / lockstep ratio leaves Fp2: a=%v b=%v inf=%d", a, b, inf)
		}
		if !finalExponentiation(new(Fp12), multi).Equal(finalExponentiation(new(Fp12), replayed)) {
			t.Fatalf("reduced replay diverges from the lockstep kernel: a=%v b=%v inf=%d", a, b, inf)
		}
	})
}

// TestMillerLoopLinesOpCounts splits the one-pair Miller loop's profile
// between the two halves: the build runs every G2 step and nothing of the
// accumulator, the replay every accumulator squaring and sparse fold and no
// G2 step, and only the replay counts as a pairing.
func TestMillerLoopLinesOpCounts(t *testing.T) {
	r := testRand()
	p := new(G1).ScalarBaseMult(randScalar(r))
	q := g2BaseMult(randScalar(r))
	doubles, adds := ateLineCounts()

	before := ReadOpCounts()
	lines := NewG2Lines(q)
	d := ReadOpCounts().Sub(before)
	if d.LineDoubles != doubles || d.LineAdds != adds || d.MillerSquarings != 0 || d.SparseMuls != 0 || d.Pairings != 0 {
		t.Fatalf("build: %d doubles, %d adds, %d squarings, %d sparse muls, %d pairings; want %d, %d, 0, 0, 0",
			d.LineDoubles, d.LineAdds, d.MillerSquarings, d.SparseMuls, d.Pairings, doubles, adds)
	}
	if ateLines != doubles+adds {
		t.Fatalf("tables hold %d lines, want %d", ateLines, doubles+adds)
	}

	before = ReadOpCounts()
	replay(p, lines)
	d = ReadOpCounts().Sub(before)
	if d.LineDoubles != 0 || d.LineAdds != 0 || d.MillerSquarings != doubles || d.SparseMuls != doubles+adds || d.Pairings != 1 {
		t.Fatalf("replay: %d doubles, %d adds, %d squarings, %d sparse muls, %d pairings; want 0, 0, %d, %d, 1",
			d.LineDoubles, d.LineAdds, d.MillerSquarings, d.SparseMuls, d.Pairings, doubles, doubles+adds)
	}
}

// TestMillerLoopLinesAllocs: a replay and a single-pair MillerLoopMulti keep
// their state on the stack, so each allocates its returned value and nothing
// else.
func TestMillerLoopLinesAllocs(t *testing.T) {
	p := new(G1).ScalarBaseMult(big.NewInt(7))
	q := g2BaseMult(big.NewInt(11))
	ps, qs, lines := []*G1{p}, []*G2{q}, NewG2Lines(q)
	multi := testing.AllocsPerRun(10, func() { MillerLoopMulti(ps, qs) })
	if a := testing.AllocsPerRun(10, func() { replay(p, lines) }); a > 1 || multi > 1 {
		t.Fatalf("replay allocates %v times, MillerLoopMulti %v; want 1 each", a, multi)
	}
}

// TestG2LinesOffSubgroup feeds NewG2Lines and MillerLoopMulti twist points
// outside the r-order subgroup — raw try-and-increment candidates, and
// points of the twist's small prime orders — and a point off the curve with
// y = 0. Nothing may panic, and neither may pair any of them: no table, no
// Miller value. The small-order points step a whole chain (no chain
// multiple k or k ± 1 is divisible by their order) to an end point that is
// not -ψ³(Q); y = 0 ends with Z = 0 (its first tangent has a = 0).
func TestG2LinesOffSubgroup(t *testing.T) {
	r := testRand()
	p := new(G1).ScalarBaseMult(randScalar(r))
	unpaired := func(q *G2) {
		if NewG2Lines(q) != nil || MillerLoopMulti([]*G1{p}, []*G2{q}) != nil {
			t.Fatalf("%v off G2 was paired", q)
		}
	}
	var raw []*G2
	for counter := uint32(0); len(raw) < 4; counter++ {
		if q := hashToTwist("lines-test", []byte("off-subgroup"), counter); q != nil {
			if q.IsInSubgroup() {
				t.Fatal("a raw candidate is in the subgroup")
			}
			raw = append(raw, q)
			unpaired(q)
		}
	}
	twistOrder := new(big.Int).Mul(Order, g2Cofactor)
	for _, d := range []int64{10069, 5864401, 1875725156269} {
		order := big.NewInt(d)
		k := new(big.Int).Div(twistOrder, order)
		var q *G2
		for _, cand := range raw {
			if q = g2ScalarMultJac(cand, k); !q.IsInfinity() {
				break
			}
		}
		if q.IsInfinity() || !q.IsOnCurve() || !g2ScalarMultJac(q, order).IsInfinity() {
			t.Fatalf("no point of order %d", d)
		}
		unpaired(q)
	}
	unpaired(&G2{X: *Fp2One()})
}
