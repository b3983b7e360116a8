package bn254

import "mccls/internal/bn254/fp"

// ateLines is the number of lines one ate walk folds: 65 doubling lines, 21
// addition lines and 2 Frobenius lines (ateLineCounts derives it in tests).
const ateLines = 88

// G2Lines is the Miller line table of one G2 point, the fixed-argument
// pairing of Costello–Stebila (LATINCRYPT 2010): a G2 argument that recurs —
// in McCLS a signer's accepted S — has its doubling and addition chain run
// once. Each unevaluated line a·yP + b·xP·w + c·w³ is stored as (b/a, c/a),
// in walk order, 11,264 bytes in all. It is immutable, so one table may be
// replayed concurrently.
type G2Lines struct {
	lines [ateLines][2]Fp2
}

// NewG2Lines runs q's chain once and returns its line table; the identity
// yields the zero table, whose every line is 1, so it replays to exactly 1
// as MillerLoopMulti's skipped pair does. q must be on the twist; a q off
// G2, which the chain's end point shows as in MillerLoopMulti, yields nil.
// No a vanishes on the twist: its small primes 10069, 5864401 and
// 1875725156269 divide no chain multiple k or k ± 1.
func NewG2Lines(q *G2) *G2Lines {
	t := new(G2Lines)
	if q.IsInfinity() {
		return t
	}
	var as [ateLines]Fp2
	var l lineEval
	n := 0
	record := func() {
		as[n], t.lines[n] = l.c0, [2]Fp2{l.c1, l.c3}
		n++
	}
	var acc g2Proj
	acc.fromAffine(q)
	var negQ, q1, q2 G2
	negQ.Neg(q)
	for i := len(ateNAF) - 2; i >= 0; i-- {
		acc.doubleStepProj(&l)
		record()
		if d := ateNAF[i]; d != 0 {
			qd := q
			if d < 0 {
				qd = &negQ
			}
			acc.addStepProj(&l, qd)
			record()
		}
	}
	acc.addStepProj(&l, q1.frobeniusTwist(q))
	record()
	acc.addStepProj(&l, q2.Neg(q2.frobeniusTwist(&q1)))
	record()
	if !acc.is(q1.frobeniusTwist(&q2)) {
		return nil
	}

	// Divide each line by its a with one inversion (Montgomery's trick).
	var pre [ateLines]Fp2
	prod := *Fp2One()
	for i := range as {
		pre[i] = prod
		prod.Mul(&prod, &as[i])
	}
	var inv, aInv Fp2
	inv.Inverse(&prod)
	for i := ateLines - 1; i >= 0; i-- {
		aInv.Mul(&inv, &pre[i])
		inv.Mul(&inv, &as[i])
		t.lines[i][0].Mul(&t.lines[i][0], &aInv)
		t.lines[i][1].Mul(&t.lines[i][1], &aInv)
	}
	return t
}

// MillerLoop replays the table at p: the unreduced Miller value of (p, Q)
// over the factor Π a·yP ∈ Fp2, which the final exponentiation kills. Line
// n is 1 + (b/a)·(xP/yP)·w + (c/a)·yP⁻¹·w³: one Fp inversion of yP, then
// per line 4 Fp products and a 12-product sparse fold, beside the ate loop's
// 65 squarings. p must be in G1 (yP ≠ 0); the identity gives 1 and counts
// no pairing.
func (t *G2Lines) MillerLoop(p *G1) *Fp12 {
	f := Fp12One()
	if p.IsInfinity() {
		return f
	}
	opCounters.pairings.Add(1)
	var yInv, x fp.Element
	yInv.Inverse(&p.Y)
	x.Mul(&p.X, &yInv)
	var c1, c3 Fp2
	n := 0
	fold := func() {
		l := &t.lines[n]
		f.mulBySparse(nil, c1.MulScalar(&l[0], &x), c3.MulScalar(&l[1], &yInv))
		n++
	}
	for i := len(ateNAF) - 2; i >= 0; i-- {
		opCounters.millerSquarings.Add(1)
		f.Square(f)
		if fold(); ateNAF[i] != 0 {
			fold()
		}
	}
	fold() // the two Frobenius lines; no interleaved squarings
	fold()
	return f
}
