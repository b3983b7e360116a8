package bn254

import (
	"math/bits"

	"mccls/internal/bn254/fr"
)

// Joint scalar multiplication for scalars born split. The GLV split gains
// nothing on a short scalar (a 128-bit k splits into a ~126-bit and a
// ~65-bit half), so a caller free to choose its scalars — the batch
// verifier's weights — draws the two halves and feeds them to the ladder as
// they are. Distinct pairs of 64-bit halves are distinct scalars: DESIGN.md
// §6 "Batch weights", TestEndoScalarInjective.

// EndoScalar is the scalar A + B·λ mod r held as its two halves, each a
// little-endian integer below 2¹²⁸, λ being the eigenvalue of the GLV
// endomorphism on G1 and G2.
type EndoScalar struct{ A, B [2]uint64 }

// Add sets e = x + y half by half, with no reduction: the caller keeps the
// sums below 2¹²⁸ (the batch verifier adds at most 2⁶ halves, each a 64-bit
// weight: sums below 2⁷⁰).
func (e *EndoScalar) Add(x, y *EndoScalar) *EndoScalar {
	var c uint64
	e.A[0], c = bits.Add64(x.A[0], y.A[0], 0)
	e.A[1], _ = bits.Add64(x.A[1], y.A[1], c)
	e.B[0], c = bits.Add64(x.B[0], y.B[0], 0)
	e.B[1], _ = bits.Add64(x.B[1], y.B[1], c)
	return e
}

// Fr returns A + B·λ mod r.
func (e *EndoScalar) Fr() (z fr.Element) {
	var a fr.Element
	a.SetLimbs([4]uint64{e.A[0], e.A[1]})
	z.SetLimbs([4]uint64{e.B[0], e.B[1]})
	z.Mul(&z, &glvLambdaFr)
	return *z.Add(&z, &a)
}

// jointSlice is how many points share one doubling chain and one table
// build, all on the stack; longer inputs run slice by slice.
const jointSlice = 8

// endoRows is glv.rows for scalars born split: it recodes the halves as they
// are, wsᵢ = rows[i] + rows[len(ws)+i]·λ.
func endoRows(buf *[2 * jointSlice][halfDigits]int8, ws []EndoScalar) (rows [2 * jointSlice][]int8) {
	for i, w := range ws {
		j := len(ws) + i
		rows[i] = wnafDigits(buf[i][:0], [4]uint64{w.A[0], w.A[1]}, wnafWindow)
		rows[j] = wnafDigits(buf[j][:0], [4]uint64{w.B[0], w.B[1]}, wnafWindow)
	}
	return rows
}

// ScalarBaseMultSubEndo sets z = k·G − Σ (wsᵢ.A + wsᵢ.B·λ)·ptsᵢ: per slice
// one build of the odd-multiple tables of every ptsᵢ and φ(ptsᵢ) and one
// joint ladder whose doublings all points share, then one fixed-base pass,
// under one final normalization. Points may repeat, cancel or be the identity.
// It counts one G1 multiplication per point and one for the fixed-base pass.
func (z *G1) ScalarBaseMultSubEndo(k *fr.Element, pts []*G1, ws []EndoScalar) *G1 {
	opCounters.g1Mults.Add(uint64(len(pts)))
	var sum g1Jac
	sum.setInfinity()
	for len(pts) > 0 {
		n := min(len(pts), jointSlice)
		var buf [2 * jointSlice][halfDigits]int8
		rows := endoRows(&buf, ws[:n])
		acc := g1Joint(pts[:n], rows[:2*n])
		if !sum.isInfinity() { // past one slice: one more inversion per slice
			acc.addMixed(sum.affine(new(G1)))
		}
		sum, pts, ws = acc, pts[n:], ws[n:]
	}
	sum.y.Neg(&sum.y)
	sum.addBaseMult(k)
	return sum.affine(z)
}

// MultiScalarMultEndo sets z = Σ (wsᵢ.A + wsᵢ.B·λ)·ptsᵢ for points of the
// order-r subgroup (φ is a scalar nowhere else): the same ladder on the
// twist, counting one G2 multiplication per point.
func (z *G2) MultiScalarMultEndo(pts []*G2, ws []EndoScalar) *G2 {
	opCounters.g2Mults.Add(uint64(len(pts)))
	var sum g2Jac
	sum.setInfinity()
	for len(pts) > 0 {
		n := min(len(pts), jointSlice)
		var buf [2 * jointSlice][halfDigits]int8
		rows := endoRows(&buf, ws[:n])
		acc := g2Joint(pts[:n], rows[:2*n], false)
		sum.add(&acc)
		pts, ws = pts[n:], ws[n:]
	}
	return sum.affine(z)
}
