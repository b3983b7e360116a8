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
// Per batch of n pairs the kernel costs 64 accumulator squarings + one
// final exponentiation (shared) plus n·64 doubling steps, n·(popcount+2)
// addition steps and one sparse multiplication per line (per pair) — the
// amortization the op-count regression tests pin. Field arithmetic is
// exact, so the lockstep product is byte-identical to the product of
// per-pair Miller values; FuzzMillerLoopMultiVsSingle enforces this against
// the per-pair oracle in oracle_test.go.

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
	// Filter trivial pairs once so the lockstep loop has no branches.
	gs := make([]*G1, 0, len(ps))
	hs := make([]*G2, 0, len(qs))
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		gs = append(gs, ps[i])
		hs = append(hs, qs[i])
	}
	f := Fp12One()
	n := len(gs)
	if n == 0 {
		return f
	}
	opCounters.pairings.Add(uint64(n))

	ts := make([]g2Proj, n)
	for j := range ts {
		ts[j].fromAffine(hs[j])
	}
	var l lineEval
	for i := ateLoopCount.BitLen() - 2; i >= 0; i-- {
		opCounters.millerSquarings.Add(1)
		f.Square(f)
		bit := ateLoopCount.Bit(i) == 1
		for j := 0; j < n; j++ {
			ts[j].doubleStepProj(&l, gs[j])
			f.mulByLine(&l)
			if bit {
				ts[j].addStepProj(&l, hs[j], gs[j])
				f.mulByLine(&l)
			}
		}
	}
	// Frobenius correction lines, two per pair; no interleaved squarings.
	for j := 0; j < n; j++ {
		q1 := new(G2).frobeniusTwist(hs[j])
		ts[j].addStepProj(&l, q1, gs[j])
		f.mulByLine(&l)
		q2 := new(G2).frobeniusTwist(q1)
		q2.Neg(q2)
		ts[j].addStepProj(&l, q2, gs[j])
		f.mulByLine(&l)
	}
	return f
}

// PairMulti computes the reduced product Π e(ps[j], qs[j]) with one lockstep
// Miller pass and one shared final exponentiation. Pairs with an infinity
// member contribute the identity.
func PairMulti(ps []*G1, qs []*G2) *GT {
	f := MillerLoopMulti(ps, qs)
	if f.IsOne() {
		// Every pair was trivial (or the product collapsed before
		// reduction); the reduced value is the identity either way.
		return GTOne()
	}
	return &GT{v: finalExponentiation(f)}
}
