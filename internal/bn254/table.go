package bn254

import (
	"slices"
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

// equalJac reports whether z = acc, z lifted to acc's Z: X = x·Z², Y = y·Z³.
func (z *G1) equalJac(acc g1Jac) bool {
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

// BaseMultAddBlock is the most indices one EqualBaseMultAddMany call takes.
const BaseMultAddBlock = 32

// EqualBaseMultAddMany reports as bit i whether zs[i] = ks[i]·G + qs[i] (qs[i]
// nil or the identity: ks[i]·G), i < len(ks) ≤ BaseMultAddBlock, one G1 mult
// counted per index. Level s of its binary tree adds each index's table slot
// j+s into slot j (j a multiple of 2s) in affine, ~6 products an addition to
// addXY's 11, all sharing one field inversion; x differs (DESIGN.md §6). From
// the first level of < 24 additions, too few to repay an inversion, the
// remaining slots and qᵢ add in Jacobian and the sum is compared unnormalised.
// One index has no inversion to share: it takes that Jacobian walk alone,
// without the tree's ≈ 100 KB frame.
func EqualBaseMultAddMany(zs []*G1, ks []fr.Element, qs []*G1) uint32 {
	if len(ks) == 1 {
		if zs[0].equalJac(baseMultAdd(&ks[0], qs[0])) {
			return 1
		}
		return 0
	}
	return equalBaseMultAddTree(zs, ks, qs)
}

func equalBaseMultAddTree(zs []*G1, ks []fr.Element, qs []*G1) (eq uint32) {
	const slots = baseTableWindows // index i's entries are pts[i·slots:][:m[i]]
	var pts [BaseMultAddBlock * slots][2]fp.Element
	var m [BaseMultAddBlock]int
	var pre, dens [BaseMultAddBlock * slots / 2]fp.Element
	var left [BaseMultAddBlock * slots / 2]uint16
	tab := g1FixedBaseTable()
	for i := range ks {
		limbs := ks[i].Limbs()
		for w := range baseTableWindows {
			if b := byte(limbs[w/8] >> (8 * (w % 8))); b != 0 {
				pts[i*slots+m[i]], m[i] = tab[w][b-1], m[i]+1
			}
		}
	}
	s := 1
	for ; s < slices.Max(m[:]); s *= 2 {
		acc, n := fp.One(), 0
		for i := range ks {
			for j := i * slots; j+s < i*slots+m[i]; j, n = j+2*s, n+1 {
				pre[n], left[n] = acc, uint16(j)
				acc.Mul(&acc, dens[n].Sub(&pts[j+s][0], &pts[j][0]))
			}
		}
		if n < 24 { // an inversion costs about what 24 affine additions save
			break
		}
		fpMustInverse(&acc, &acc) // acc is now the inverse of the denominators' product
		for n--; n >= 0; n-- {
			l, r := &pts[left[n]], &pts[int(left[n])+s]
			var lambda, x3, t fp.Element
			lambda.Mul(lambda.Sub(&r[1], &l[1]), t.Mul(&acc, &pre[n]))
			acc.Mul(&acc, &dens[n])
			x3.Sub(x3.Sub(x3.Square(&lambda), &l[0]), &r[0])
			l[1].Sub(t.Mul(t.Sub(&l[0], &x3), &lambda), &l[1])
			l[0] = x3
		}
	}
	opCounters.g1Mults.Add(uint64(len(ks)))
	for i := range ks {
		var acc g1Jac
		acc.setInfinity()
		for j := i * slots; j < i*slots+m[i]; j += s {
			acc.addXY(&pts[j][0], &pts[j][1])
		}
		if q := qs[i]; q != nil && !q.Inf {
			acc.addMixed(q)
		}
		if zs[i].equalJac(acc) {
			eq |= 1 << i
		}
	}
	return eq
}
