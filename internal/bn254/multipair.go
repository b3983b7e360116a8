package bn254

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
// op-count regression tests pin. One line table's replay (lines.go) is a
// loop of its own. Field arithmetic is exact, so the lockstep product is
// byte-identical to the product of per-pair Miller values
// (FuzzMillerLoopMultiVsSingle, against oracle_test.go's per-pair loop).

// MillerLoopMulti computes the unreduced product Π fⱼ of the Miller values
// of the pairs (ps[j], qs[j]) in one lockstep loop: per iteration one shared
// Fp12 squaring and a projective step per pair. Pairs with an infinity
// member are skipped. Pair, PairingCheck and m_ID sit on it. qs must be on
// the twist; a Q off G2, whose chain does not end on -ψ³(Q), makes it nil.
func MillerLoopMulti(ps []*G1, qs []*G2) *Fp12 {
	if len(ps) != len(qs) {
		panic("bn254: MillerLoopMulti length mismatch")
	}
	// Per-pair state, copied so no argument escapes; negQ serves the -1
	// digits. A single pair (every Verify) stays on the stack.
	type pointPair struct {
		p       G1
		q, negQ G2
		t       g2Proj
	}
	var one [1]pointPair
	pairs := one[:0]
	if len(qs) > len(one) {
		pairs = make([]pointPair, 0, len(qs))
	}
	// Filter trivial pairs once so the lockstep loop has no branches.
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
	if len(pairs) == 0 {
		return f
	}
	opCounters.pairings.Add(uint64(len(pairs)))

	var l lineEval
	for i := len(ateNAF) - 2; i >= 0; i-- {
		opCounters.millerSquarings.Add(1)
		f.Square(f)
		d := ateNAF[i]
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
