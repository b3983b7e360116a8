package bn254

import (
	"math/big"
	"math/bits"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
)

// GLV scalar multiplication (Gallant–Lambert–Vanstone). BN curves
// have j-invariant 0, so E(Fp) carries the cheap endomorphism
// φ(x, y) = (β·x, y) with β a primitive cube root of unity in Fp; on the
// order-r subgroup φ acts as multiplication by λ, a cube root of unity
// mod r. A 254-bit scalar k therefore splits as k ≡ k1 + k2·λ (mod r) with
// |k1|, |k2| ≈ √r ≈ 2^127, and k·P = k1·P + k2·φ(P) runs as a joint
// width-5 wNAF ladder of half the length: ~127 doublings instead of ~254.
//
// Every constant below is derived at init from the curve parameters (β and
// λ as roots of x² + x + 1 in Fp and Zr, the lattice basis by the extended
// Euclidean algorithm on (r, λ)) and cross-checked against the naive
// ladder, so a transcription error aborts startup instead of corrupting
// scalar multiplications. The matching of β to λ (each has two candidate
// roots) is resolved empirically: φ must act as λ, not λ².
//
// The twist has j-invariant 0 too: with glvBetaG2 the same map acts on G2 as
// λ and G2 shares glvSplit.
//
// Every variable-base multiplication on either group is one walkWNAF over
// rows from one of two recoders — glvRows for a full-width fr.Element,
// endoRows for an EndoScalar born split — through g1Joint or g2Joint.

var (
	// glvBeta is the cube root of unity in Fp with φ(P) = λ·P for glvLambda.
	glvBeta fp.Element
	// glvLambda is the matching cube root of unity mod r, glvLambdaFr its
	// limb-typed copy for EndoScalar.Fr.
	glvLambda   *big.Int
	glvLambdaFr fr.Element
	// glvBetaG2 is the cube root of unity in Fp with (β·x, y) = λ·Q on G2.
	glvBetaG2 fp.Element
	// The Babai rounding of glvSplit in limbs, from the short lattice
	// vectors v1 = (a1, b1), v2 = (a2, b2) with a + b·λ ≡ 0 (mod r):
	// glvG[i] = round(2^256·|nᵢ|/r) for the numerators n = (b2, -b1), so
	// that mᵢ = round(k·glvG[i]/2^256) ≈ |k·nᵢ/r|, and glvN[h][i] the
	// coordinate of -sign(nᵢ)·vᵢ that half h picks up per unit of mᵢ, as a
	// two's-complement 256-bit integer.
	glvG [2]fp.Element
	glvN [2][2][4]uint64
)

// cubeRootOfUnity returns a primitive cube root of unity modulo the odd
// prime m ≡ 1 (mod 3): (-1 + sqrt(-3))/2.
func cubeRootOfUnity(m *big.Int) *big.Int {
	s := new(big.Int).ModSqrt(new(big.Int).Mod(big.NewInt(-3), m), m)
	if s == nil {
		panic("bn254: -3 is not a square; modulus not ≡ 1 mod 3")
	}
	w := new(big.Int).Sub(s, big.NewInt(1))
	w.Mul(w, new(big.Int).ModInverse(big.NewInt(2), m))
	w.Mod(w, m)
	// Assert w² + w + 1 ≡ 0 (mod m).
	chk := new(big.Int).Mul(w, w)
	chk.Add(chk, w)
	chk.Add(chk, big.NewInt(1))
	if chk.Mod(chk, m).Sign() != 0 {
		panic("bn254: cube root of unity derivation failed")
	}
	return w
}

func init() {
	glvBeta.SetBigInt(cubeRootOfUnity(P))
	glvLambda = cubeRootOfUnity(Order)
	// Two candidate eigenvalues: λ and λ² = -1-λ. Pick the one matching
	// φ(G) = (β·x, y) on the generator, checked by a one-row walk, which
	// builds no φ table.
	g := G1Generator()
	phi := &G1{Y: g.Y}
	phi.X.Mul(&g.X, &glvBeta)
	lambdaRows := func() [][]int8 { return [][]int8{wnafDigits(nil, scalarLimbs(glvLambda), wnafWindow)} }
	if lg := g1Joint([]*G1{g}, lambdaRows()); !phi.Equal(lg.affine(new(G1))) {
		glvLambda.Sub(Order, glvLambda)
		glvLambda.Sub(glvLambda, big.NewInt(1))
		if lg := g1Joint([]*G1{g}, lambdaRows()); !phi.Equal(lg.affine(new(G1))) {
			panic("bn254: no eigenvalue matches the GLV endomorphism")
		}
	}
	glvLambdaFr = *frFromBig(glvLambda)
	a1, b1, a2, b2 := glvLattice(Order, glvLambda)
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	for i, v := range [2][3]*big.Int{{b2, a1, b1}, {new(big.Int).Neg(b1), a2, b2}} {
		g := new(big.Int).Abs(v[0])
		g.Lsh(g, 257).Div(g, Order).Add(g, big.NewInt(1)).Rsh(g, 1) // round(2^256·|n|/r)
		glvG[i] = fp.Element(scalarLimbs(g))
		for h, coord := range v[1:] {
			n := new(big.Int).Mul(coord, big.NewInt(int64(-v[0].Sign())))
			glvN[h][i] = scalarLimbs(n.Mod(n, two256))
		}
	}
	// On G2 the same β acts as λ², so β² = β̄ acts as λ⁴ = λ.
	glvBetaG2.Square(&glvBeta)
	phiQ := &G2{Y: g2Gen.Y}
	phiQ.X.MulScalar(&g2Gen.X, &glvBetaG2)
	if lq := g2Joint([]*G2{g2Gen}, lambdaRows()); !phiQ.Equal(lq.affine(new(G2))) {
		panic("bn254: β² does not act as the GLV eigenvalue on G2")
	}
}

// glvLattice finds two short vectors of the lattice
// {(a, b) : a + b·λ ≡ 0 mod r} via the extended Euclidean algorithm on
// (r, λ), stopping at the first remainder below √r (Guide to ECC,
// Alg. 3.74). Each remainder rᵢ = sᵢ·r + tᵢ·λ yields the vector (rᵢ, -tᵢ).
func glvLattice(r, lambda *big.Int) (a1, b1, a2, b2 *big.Int) {
	sqrtR := new(big.Int).Sqrt(r)
	r0, r1 := new(big.Int).Set(r), new(big.Int).Set(lambda)
	t0, t1 := big.NewInt(0), big.NewInt(1)
	for r1.Cmp(sqrtR) >= 0 {
		q := new(big.Int).Div(r0, r1)
		r0, r1 = r1, new(big.Int).Sub(r0, new(big.Int).Mul(q, r1))
		t0, t1 = t1, new(big.Int).Sub(t0, new(big.Int).Mul(q, t1))
	}
	// (r1, -t1) is short; pair it with the shorter of (r0, -t0) and the
	// next remainder's vector.
	q := new(big.Int).Div(r0, r1)
	r2 := new(big.Int).Sub(r0, new(big.Int).Mul(q, r1))
	t2 := new(big.Int).Sub(t0, new(big.Int).Mul(q, t1))
	normSq := func(a, b *big.Int) *big.Int {
		n := new(big.Int).Mul(a, a)
		return n.Add(n, new(big.Int).Mul(b, b))
	}
	a1, b1 = r1, new(big.Int).Neg(t1)
	if normSq(r0, t0).Cmp(normSq(r2, t2)) <= 0 {
		a2, b2 = r0, new(big.Int).Neg(t0)
	} else {
		a2, b2 = r2, new(big.Int).Neg(t2)
	}
	return a1, b1, a2, b2
}

// glvSplit decomposes k ∈ [0, r) as k ≡ ±k1 ± k2·λ (mod r), returning the
// magnitudes and signs of the two halves, each bounded by the lattice
// diameter (≈ √r; the sub-scalar bound test pins < 2^130). Babai rounding:
// subtract from (k, 0) its closest lattice approximation c1·v1 + c2·v2,
// with cᵢ taken from a 256-bit fixed-point reciprocal of r — off by at
// most one from the exact rounding, which only moves the halves by one
// short vector. All of it is 256-bit limb arithmetic modulo 2^256; the
// halves are far shorter, so their two's-complement sign bit is exact.
func glvSplit(k *[4]uint64) (k1, k2 [4]uint64, neg1, neg2 bool) {
	k1 = *k
	for i := range glvG {
		var w fp.Wide
		w.Mul((*fp.Element)(k), &glvG[i])
		var m [4]uint64 // the high half, rounded on the top bit of the low half
		c := w[3] >> 63
		for j := range m {
			m[j], c = bits.Add64(w[4+j], 0, c)
		}
		addMulLow(&k1, &m, &glvN[0][i])
		addMulLow(&k2, &m, &glvN[1][i])
	}
	neg1, neg2 = absLimbs(&k1), absLimbs(&k2)
	return k1, k2, neg1, neg2
}

// addMulLow sets z += x·y mod 2^256.
func addMulLow(z, x, y *[4]uint64) {
	var w fp.Wide
	w.Mul((*fp.Element)(x), (*fp.Element)(y))
	var c uint64
	for j := range z {
		z[j], c = bits.Add64(z[j], w[j], c)
	}
}

// absLimbs replaces the two's-complement integer z by |z| and reports
// whether it was negative.
func absLimbs(z *[4]uint64) (neg bool) {
	mask := -(z[3] >> 63)
	c := mask & 1
	for j := range z {
		z[j], c = bits.Add64(z[j]^mask, 0, c)
	}
	return mask != 0
}

// glvRows recodes at most jointSlice scalars into buf in the row order of
// g1Joint/g2Joint: the GLV halves of ksᵢ, ksᵢ ≡ rows[i] + rows[len(ks)+i]·λ
// (mod r), a negative half's digits negated so that the tables stay those
// of P and φ(P). The rows come back by value: stored through a pointer they
// would move buf to the heap.
func glvRows(buf *[2 * jointSlice][halfDigits]int8, ks []fr.Element) (rows [2 * jointSlice][]int8) {
	for i := range ks {
		limbs := ks[i].Limbs()
		k1, k2, neg1, neg2 := glvSplit(&limbs)
		halves, negs := [2][4]uint64{k1, k2}, [2]bool{neg1, neg2}
		for h, r := range [2]int{i, len(ks) + i} {
			rows[r] = wnafDigits(buf[r][:0], halves[h], wnafWindow)
			if negs[h] {
				for x := range rows[r] {
					rows[r][x] = -rows[r][x]
				}
			}
		}
	}
	return rows
}

// g1OddMultiples fills row i of tab (wnafTableSize entries) with
// [Pᵢ, 3Pᵢ, 5Pᵢ, …] in affine coordinates for each of at most jointSlice
// points, by Jacobian additions and two batched normalizations: of the
// doubles (parked in tab meanwhile) and of the tables. A tab twice as long
// takes the rows of φ(Pᵢ) after them: φ is additive, so β·x on each entry.
func g1OddMultiples(tab []G1, pts []*G1) {
	var js [jointSlice * wnafTableSize]g1Jac
	for i, p := range pts {
		js[i].fromAffine(p)
		js[i].double()
	}
	g1BatchAffine(tab[:len(pts)], js[:len(pts)])
	m := len(pts) * wnafTableSize
	for i, p := range pts {
		row := js[i*wnafTableSize:][:wnafTableSize]
		row[0].fromAffine(p)
		for k := 1; k < len(row); k++ {
			row[k] = row[k-1]
			if !tab[i].Inf { // the identity, or two-torsion (y = 0)
				row[k].addMixed(&tab[i])
			}
		}
	}
	g1BatchAffine(tab[:m], js[:m])
	for i := range tab[m:] {
		tab[m+i] = tab[i]
		tab[m+i].X.Mul(&tab[i].X, &glvBeta)
	}
}

// addDigit adds the multiple a nonzero wNAF digit d selects from the
// odd-multiples table tab (entry i holds (2i+1)·P) to j.
func (j *g1Jac) addDigit(tab []G1, d int8) {
	pt := tab[(max(d, -d)-1)/2]
	if pt.Inf {
		return
	}
	if d < 0 {
		pt.Neg(&pt)
	}
	j.addMixed(&pt)
}

// g1Joint returns the Jacobian sum the rows select for at most jointSlice
// points: row i holds the digits of pts[i] and, with two rows per point,
// row len(pts)+i those of φ(pts[i]). One table build, one walk.
func g1Joint(pts []*G1, rows [][]int8) g1Jac {
	var tab [2 * jointSlice * wnafTableSize]G1
	g1OddMultiples(tab[:len(rows)*wnafTableSize], pts)
	var acc g1Jac
	acc.setInfinity()
	walkWNAF(rows, acc.double, func(r int, d int8) { acc.addDigit(tab[r*wnafTableSize:], d) })
	return acc
}

// g2OddMultiples is the G2 counterpart of g1OddMultiples.
func g2OddMultiples(tab []G2, pts []*G2) {
	var js [jointSlice * wnafTableSize]g2Jac
	for i, p := range pts {
		js[i].fromAffine(p)
		js[i].double()
	}
	g2BatchAffine(tab[:len(pts)], js[:len(pts)])
	m := len(pts) * wnafTableSize
	for i, p := range pts {
		row := js[i*wnafTableSize:][:wnafTableSize]
		row[0].fromAffine(p)
		for k := 1; k < len(row); k++ {
			row[k] = row[k-1]
			if !tab[i].Inf {
				row[k].addMixed(&tab[i])
			}
		}
	}
	g2BatchAffine(tab[:m], js[:m])
	for i := range tab[m:] {
		tab[m+i] = tab[i]
		tab[m+i].X.MulScalar(&tab[i].X, &glvBetaG2)
	}
}

// addDigit is the G2 counterpart of g1Jac.addDigit.
func (j *g2Jac) addDigit(tab []G2, d int8) {
	pt := tab[(max(d, -d)-1)/2]
	if pt.Inf {
		return
	}
	if d < 0 {
		pt.Neg(&pt)
	}
	j.addMixed(&pt)
}

// g2Joint is the G2 counterpart of g1Joint.
func g2Joint(pts []*G2, rows [][]int8) g2Jac {
	var tab [2 * jointSlice * wnafTableSize]G2
	g2OddMultiples(tab[:len(rows)*wnafTableSize], pts)
	var acc g2Jac
	acc.setInfinity()
	walkWNAF(rows, acc.double, func(r int, d int8) { acc.addDigit(tab[r*wnafTableSize:], d) })
	return acc
}
