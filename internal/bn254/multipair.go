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
// op-count regression tests pin. Field arithmetic is exact, so the lockstep
// product is byte-identical to the product of per-pair Miller values;
// FuzzMillerLoopMultiVsSingle enforces this against the per-pair oracle in
// oracle_test.go.

// MillerLoopMulti computes the unreduced product Π fⱼ of the optimal-ate
// Miller values of the pairs (ps[j], qs[j]), running all doubling chains in
// lockstep so the accumulator squaring is shared across the batch. Pairs
// with an infinity member contribute the identity and are skipped. The
// result must still pass a final exponentiation to become a GT element;
// Pair, PairingCheck and the batch-verification engine all sit on this
// kernel. ps and qs must have equal length.
func MillerLoopMulti(ps []*G1, qs []*G2) *Fp12 {
	if len(ps) != len(qs) {
		panic("bn254: MillerLoopMulti length mismatch")
	}
	// Per-pair state; negQ serves the -1 digits. A single pair (every
	// Verify) stays on the stack.
	type pair struct {
		p    *G1
		q    *G2
		negQ G2
		t    g2Proj
	}
	var one [1]pair
	pairs := one[:0]
	if len(ps) > len(one) {
		pairs = make([]pair, 0, len(ps))
	}
	// Filter trivial pairs once so the lockstep loop has no branches.
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		pairs = append(pairs, pair{p: ps[i], q: qs[i]})
		pr := &pairs[len(pairs)-1]
		pr.negQ.Neg(pr.q)
		pr.t.fromAffine(pr.q)
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
		for j := range pairs {
			pr := &pairs[j]
			pr.t.doubleStepProj(&l)
			f.mulByLine(l.at(pr.p))
			if d := ateNAF[i]; d != 0 {
				q := pr.q
				if d < 0 {
					q = &pr.negQ
				}
				pr.t.addStepProj(&l, q)
				f.mulByLine(l.at(pr.p))
			}
		}
	}
	// Frobenius correction lines, two per pair; no interleaved squarings.
	var q1, q2 G2
	for j := range pairs {
		pr := &pairs[j]
		q1.frobeniusTwist(pr.q)
		pr.t.addStepProj(&l, &q1)
		f.mulByLine(l.at(pr.p))
		q2.frobeniusTwist(&q1)
		q2.Neg(&q2)
		pr.t.addStepProj(&l, &q2)
		f.mulByLine(l.at(pr.p))
	}
	return f
}

// PairMulti computes the reduced product Π e(ps[j], qs[j]) with one lockstep
// Miller pass and one shared final exponentiation. Pairs with an infinity
// member contribute the identity.
func PairMulti(ps []*G1, qs []*G2) *GT {
	return &GT{v: finalExponentiation(MillerLoopMulti(ps, qs))}
}

// ReducesToOne reports whether the final exponentiation of f is the
// identity. FE is a homomorphism, so FE(f₁) = FE(f₂) ⇔ ReducesToOne(f₁·f₂⁻¹):
// a caller holding one side as a cached Miller value decides a pairing
// equation with one final exponentiation, not one per side.
func ReducesToOne(f *Fp12) bool { return finalExponentiation(f).IsOne() }
