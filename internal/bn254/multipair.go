package bn254

import "mccls/internal/bn254/fp"

// Lockstep multi-pairing kernel. A product of optimal-ate pairings
// Π e(Pⱼ, Qⱼ) shares two expensive pieces of work across the batch:
//
//   - the final exponentiation (one per product, not one per pair — already
//     exploited by PairingCheck), and
//   - the per-iteration squaring of the Miller accumulator. The Miller value
//     of a product is the product of the Miller values, and squaring is a
//     ring homomorphism on that product: (Π fⱼ)² = Π fⱼ². Running every
//     pair's doubling chain in lockstep therefore needs only ONE shared Fp12
//     squaring per ate-loop iteration, with each pair contributing its
//     sparse w⁰/w¹/w³ line via mulByLine.
//
// The loop walks ateNAF, the signed digits of 6u+2: a -1 digit adds -Q,
// trading one extra doubling for 15 fewer addition steps per pair. Per
// batch of n pairs the kernel costs len(ateNAF)-1 = 65 accumulator squarings
// + one final exponentiation (shared) plus n·65 doubling steps, n·(21+2)
// addition steps (nonzero digits below the top, plus two Frobenius lines)
// and one sparse multiplication per line (per pair) — the amortization the
// op-count regression tests pin. A table pair (lines.go) replays its lines
// instead of stepping. Field arithmetic is exact, so the lockstep product is
// byte-identical to the product of per-pair Miller values
// (FuzzMillerLoopMultiVsSingle, against oracle_test.go's per-pair loop).

// MillerLoopMulti is MillerLoopMixed over point pairs only, the unreduced
// Π fⱼ of the pairs (ps[j], qs[j]): Pair, PairingCheck and m_ID sit on it.
func MillerLoopMulti(ps []*G1, qs []*G2) *Fp12 { return MillerLoopMixed(nil, nil, ps, qs) }

// MillerLoopMixed computes the unreduced product of the Miller values of the
// table pairs (tps[j], ts[j]) and the point pairs (ps[j], qs[j]) in one
// lockstep loop: per iteration one shared Fp12 squaring, a replayed line per
// table pair and a projective step per point pair. Pairs with an infinity
// member are skipped. A table pair counts as a pairing; its value is the
// stepped one over a factor in Fp2 (NewG2Lines), which the final
// exponentiation kills. tps must be in G1 (no yP is 0) and qs on the twist;
// a stepped Q off G2, whose chain does not end on -ψ³(Q), makes it nil.
func MillerLoopMixed(tps []*G1, ts []*G2Lines, ps []*G1, qs []*G2) *Fp12 {
	if len(tps) != len(ts) || len(ps) != len(qs) {
		panic("bn254: MillerLoopMixed length mismatch")
	}
	// Per-pair state, copied so no argument escapes; negQ serves the -1
	// digits. A single pair of either kind (every Verify) stays on the stack.
	type tablePair struct {
		lines      *[ateLines][2]Fp2
		y, yInv, x fp.Element // x becomes xP/yP
	}
	type pointPair struct {
		p       G1
		q, negQ G2
		t       g2Proj
	}
	var oneT [1]tablePair
	var oneP [1]pointPair
	tabs, pairs := oneT[:0], oneP[:0]
	if len(ts) > len(oneT) {
		tabs = make([]tablePair, 0, len(ts))
	}
	if len(qs) > len(oneP) {
		pairs = make([]pointPair, 0, len(qs))
	}
	// Filter trivial pairs once so the lockstep loop has no branches. The
	// table pairs' yP are inverted together (Montgomery's trick): prefix
	// products in yInv, one inversion, a backward pass.
	prod := fp.One()
	for i := range ts {
		if tps[i].IsInfinity() || ts[i].q.IsInfinity() {
			continue
		}
		tabs = append(tabs, tablePair{lines: &ts[i].lines, y: tps[i].Y, yInv: prod, x: tps[i].X})
		prod.Mul(&prod, &tps[i].Y)
	}
	if len(tabs) > 0 { // no inversion for point pairs alone
		var inv fp.Element
		inv.Inverse(&prod)
		for j := len(tabs) - 1; j >= 0; j-- {
			tp := &tabs[j]
			tp.yInv.Mul(&tp.yInv, &inv)
			inv.Mul(&inv, &tp.y)
			tp.x.Mul(&tp.x, &tp.yInv)
		}
	}
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		pairs = append(pairs, pointPair{p: *ps[i], q: *qs[i]})
		pr := &pairs[len(pairs)-1]
		pr.negQ.Neg(&pr.q)
		pr.t.fromAffine(&pr.q)
	}
	f := Fp12One()
	if len(tabs)+len(pairs) == 0 {
		return f
	}
	opCounters.pairings.Add(uint64(len(tabs) + len(pairs)))

	// Line n of every table is 1 + (b/a)·(xP/yP)·w + (c/a)·yP⁻¹·w³.
	var c1, c3 Fp2
	fold := func(n int) {
		for j := range tabs {
			tp := &tabs[j]
			l := &tp.lines[n]
			f.mulBySparse(nil, c1.MulScalar(&l[0], &tp.x), c3.MulScalar(&l[1], &tp.yInv))
		}
	}
	var l lineEval
	n := 0
	for i := len(ateNAF) - 2; i >= 0; i-- {
		opCounters.millerSquarings.Add(1)
		f.Square(f)
		d := ateNAF[i]
		fold(n)
		n++
		if d != 0 {
			fold(n)
			n++
		}
		for j := range pairs {
			pr := &pairs[j]
			pr.t.doubleStepProj(&l)
			f.mulByLine(l.at(&pr.p))
			if d != 0 {
				q := &pr.q
				if d < 0 {
					q = &pr.negQ
				}
				pr.t.addStepProj(&l, q)
				f.mulByLine(l.at(&pr.p))
			}
		}
	}
	// Frobenius correction lines, two per pair; no interleaved squarings.
	fold(n)
	fold(n + 1)
	var q1, q2 G2
	for j := range pairs {
		pr := &pairs[j]
		q1.frobeniusTwist(&pr.q)
		pr.t.addStepProj(&l, &q1)
		f.mulByLine(l.at(&pr.p))
		q2.frobeniusTwist(&q1)
		q2.Neg(&q2)
		pr.t.addStepProj(&l, &q2)
		f.mulByLine(l.at(&pr.p))
		if !pr.t.is(q1.frobeniusTwist(&q2)) {
			return nil
		}
	}
	return f
}

// FinalExp reduces an unreduced Miller value, nil for nil, to its GT element.
func FinalExp(f *Fp12) *GT {
	if f == nil {
		return nil
	}
	return &GT{v: finalExponentiation(new(Fp12), f)}
}

// ReducesToOne reports whether the final exponentiation of f is the
// identity (false for nil). FE is a homomorphism, so FE(f₁) = FE(f₂) ⇔
// ReducesToOne(f₁·f₂⁻¹): a caller holding one side as a cached Miller value
// decides a pairing equation with one final exponentiation, not one per side.
func ReducesToOne(f *Fp12) bool { return f != nil && finalExponentiation(new(Fp12), f).IsOne() }
