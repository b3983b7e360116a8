package bn254

import (
	"sync"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// Fixed-base scalar multiplication for the G1 generator. The generator is
// pinned by the protocol (R = (r-x)·P in Sign, (V/h)·P in Verify), so the
// repeated-doubling half of the ladder can be precomputed once: the table
// stores d·2^(8j)·G for every byte window j and byte value d, turning a
// 254-bit ScalarBaseMult into at most 32 mixed additions and zero
// doublings. The table is 510 KiB of bare (x, y) pairs — no entry is the
// identity, so the 72-byte G1 with its flag would only dilute cache lines —
// built lazily behind a
// sync.Once (~8k Jacobian additions and one batched inversion, a few
// milliseconds) and shared process-wide; core.Params.Precompute forces the
// build at setup so first-request latency stays flat.

// baseTableWindows is the number of byte-sized windows covering a 256-bit
// reduced scalar.
const baseTableWindows = 32

// g1BaseTable[j][d-1] = d·2^(8j)·G as an affine (x, y) pair.
var (
	g1BaseTableOnce sync.Once
	g1BaseTable     *[baseTableWindows][255][2]fp.Element
)

// PrecomputeFixedBase builds the fixed-base generator table now instead of
// on first use. Safe to call concurrently and more than once.
func PrecomputeFixedBase() { g1FixedBaseTable() }

func g1FixedBaseTable() *[baseTableWindows][255][2]fp.Element {
	g1BaseTableOnce.Do(buildG1BaseTable)
	return g1BaseTable
}

func buildG1BaseTable() {
	// Window bases 2^(8j)·G, normalized in one batch.
	baseJacs := make([]g1Jac, baseTableWindows)
	baseJacs[0].fromAffine(G1Generator())
	for j := 1; j < baseTableWindows; j++ {
		baseJacs[j] = baseJacs[j-1]
		for s := 0; s < 8; s++ {
			baseJacs[j].double()
		}
	}
	bases := make([]G1, len(baseJacs))
	g1BatchAffine(bases, baseJacs)

	// All 32·255 entries accumulate in Jacobian form, then one batched
	// normalization replaces 8160 inversions with one.
	entries := make([]g1Jac, baseTableWindows*255)
	for j := 0; j < baseTableWindows; j++ {
		var cur g1Jac
		cur.fromAffine(&bases[j])
		for d := 1; d <= 255; d++ {
			entries[j*255+d-1] = cur
			cur.addMixed(&bases[j])
		}
	}
	affine := make([]G1, len(entries))
	g1BatchAffine(affine, entries)

	tab := new([baseTableWindows][255][2]fp.Element)
	for i := range affine {
		tab[i/255][i%255] = [2]fp.Element{affine[i].X, affine[i].Y}
	}
	g1BaseTable = tab
}

// addBaseMult sets j = j + k·G using the fixed-base table, the window digits
// being the bytes of k's canonical limbs. It counts one G1 multiplication.
func (j *g1Jac) addBaseMult(k *fr.Element) {
	opCounters.g1Mults.Add(1)
	tab := g1FixedBaseTable()
	limbs := k.Limbs()
	for w := 0; w < baseTableWindows; w++ {
		if b := byte(limbs[w/8] >> (8 * (w % 8))); b != 0 {
			e := &tab[w][b-1]
			j.addXY(&e[0], &e[1])
		}
	}
}

// ScalarBaseMultAddFr sets z = k·G + q using the fixed-base table, folding
// the extra point (Verify's -R) into the same accumulation so the whole
// expression costs one final normalization. q may be nil or the identity.
func (z *G1) ScalarBaseMultAddFr(k *fr.Element, q *G1) *G1 {
	acc := baseMultAdd(k, q)
	return acc.affine(z)
}

// EqualBaseMultAdd reports whether z = k·G + q, with ScalarBaseMultAddFr's
// accumulation but no field inversion: z is lifted to the sum's Z instead,
// X = x·Z² and Y = y·Z³. q may be nil or the identity.
func (z *G1) EqualBaseMultAdd(k *fr.Element, q *G1) bool {
	acc := baseMultAdd(k, q)
	if z.Inf || acc.isInfinity() {
		return z.Inf == acc.isInfinity()
	}
	var zz, zzz, x, y fp.Element
	zzz.Mul(zz.Square(&acc.z), &acc.z)
	return x.Mul(&z.X, &zz).Equal(&acc.x) && y.Mul(&z.Y, &zzz).Equal(&acc.y)
}

// baseMultAdd returns k·G + q in Jacobian coordinates.
func baseMultAdd(k *fr.Element, q *G1) (acc g1Jac) {
	acc.setInfinity()
	acc.addBaseMult(k)
	if q != nil && !q.Inf {
		acc.addMixed(q)
	}
	return acc
}
