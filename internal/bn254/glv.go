package bn254

import (
	"math/big"

	"mccls/internal/bn254/fp"
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
// λ and G2 shares glvSplit. Outside the subgroup φ is no scalar, so
// g2ScalarMultGLV is for subgroup points only, g2JacMultWNAF for the rest.

var (
	// glvBeta is the cube root of unity in Fp with φ(P) = λ·P for glvLambda.
	glvBeta fp.Element
	// glvLambda is the matching cube root of unity mod r.
	glvLambda *big.Int
	// glvBetaG2 is the cube root of unity in Fp with (β·x, y) = λ·Q on G2.
	glvBetaG2 fp.Element
	// glvV1 = (a1, b1) and glvV2 = (a2, b2) are short lattice vectors with
	// a + b·λ ≡ 0 (mod r), used for Babai rounding in glvSplit.
	glvA1, glvB1, glvA2, glvB2 *big.Int
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
	// φ(G) = (β·x, y) on the generator, checked with the plain ladder.
	g := G1Generator()
	phi := &G1{Y: g.Y}
	phi.X.Mul(&g.X, &glvBeta)
	if !g1ScalarMultJac(g, glvLambda).Equal(phi) {
		glvLambda.Sub(Order, glvLambda)
		glvLambda.Sub(glvLambda, big.NewInt(1))
		if !g1ScalarMultJac(g, glvLambda).Equal(phi) {
			panic("bn254: no eigenvalue matches the GLV endomorphism")
		}
	}
	glvA1, glvB1, glvA2, glvB2 = glvLattice(Order, glvLambda)
	// On G2 the same β acts as λ², so β² = β̄ acts as λ⁴ = λ.
	glvBetaG2.Square(&glvBeta)
	phiQ := &G2{Y: g2Gen.Y}
	phiQ.X.MulScalar(&g2Gen.X, &glvBetaG2)
	if lq := g2JacMultWNAF(g2Gen, glvLambda); !phiQ.Equal(lq.affine()) {
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

// roundDiv returns round(x/y) for y > 0, rounding half away from floor:
// floor((2x + y) / 2y).
func roundDiv(x, y *big.Int) *big.Int {
	n := new(big.Int).Lsh(x, 1)
	n.Add(n, y)
	d := new(big.Int).Lsh(y, 1)
	return n.Div(n, d) // big.Int Div is Euclidean: floor for d > 0
}

// glvSplit decomposes k ∈ [0, r) as k ≡ k1 + k2·λ (mod r) with
// |k1|, |k2| bounded by the lattice diameter (≈ √r; the sub-scalar bound
// test pins ≤ 2^129). Babai rounding: subtract from (k, 0) its closest
// lattice approximation c1·v1 + c2·v2.
func glvSplit(k *big.Int) (k1, k2 *big.Int) {
	c1 := roundDiv(new(big.Int).Mul(glvB2, k), Order)
	c2 := roundDiv(new(big.Int).Neg(new(big.Int).Mul(glvB1, k)), Order)
	k1 = new(big.Int).Set(k)
	k1.Sub(k1, new(big.Int).Mul(c1, glvA1))
	k1.Sub(k1, new(big.Int).Mul(c2, glvA2))
	k2 = new(big.Int).Neg(new(big.Int).Mul(c1, glvB1))
	k2.Sub(k2, new(big.Int).Mul(c2, glvB2))
	return k1, k2
}

// g1OddMultiples returns [P, 3P, 5P, …, (2n-1)P] in affine coordinates,
// using Jacobian additions and one batched normalization. a must not be
// the identity.
func g1OddMultiples(a *G1, n int) []G1 {
	var d g1Jac
	d.fromAffine(a)
	d.double()
	twoA := d.affine() // y = 0 (two-torsion) collapses to infinity here
	js := make([]g1Jac, n)
	js[0].fromAffine(a)
	for i := 1; i < n; i++ {
		js[i] = js[i-1]
		if !twoA.Inf {
			js[i].addMixed(twoA)
		}
	}
	return g1BatchAffine(js)
}

// addDigit adds the multiple a wNAF digit d selects from the odd-multiples
// table tab (entry i holds (2i+1)·P) to j.
func (j *g1Jac) addDigit(tab []G1, d int8) {
	if d == 0 {
		return
	}
	pt := tab[(max(d, -d)-1)/2]
	if pt.Inf {
		return
	}
	if d < 0 {
		pt.Neg(&pt)
	}
	j.addMixed(&pt)
}

// g1ScalarMultGLV computes k·a for k ∈ [0, r) via GLV decomposition and a
// joint width-5 wNAF ladder over the odd-multiple tables of a and φ(a),
// each negated up front when its half-scalar is.
func g1ScalarMultGLV(a *G1, k *big.Int) *G1 {
	if a.Inf || k.Sign() == 0 {
		return G1Infinity()
	}
	k1, k2 := glvSplit(k)
	tab := g1OddMultiples(a, wnafTableSize)
	tabPhi := make([]G1, len(tab))
	for i := range tab {
		// φ distributes over addition, so φ(table) is β·x on each entry.
		tabPhi[i] = tab[i]
		tabPhi[i].X.Mul(&tab[i].X, &glvBeta)
		if k1.Sign() < 0 {
			tab[i].Neg(&tab[i])
		}
		if k2.Sign() < 0 {
			tabPhi[i].Neg(&tabPhi[i])
		}
	}
	d1 := wnafDigits(k1.Abs(k1), wnafWindow)
	d2 := wnafDigits(k2.Abs(k2), wnafWindow)
	var acc g1Jac
	acc.setInfinity()
	for i := max(len(d1), len(d2)) - 1; i >= 0; i-- {
		acc.double()
		if i < len(d1) {
			acc.addDigit(tab, d1[i])
		}
		if i < len(d2) {
			acc.addDigit(tabPhi, d2[i])
		}
	}
	return acc.affine()
}

// g2OddMultiples is the G2 counterpart of g1OddMultiples.
func g2OddMultiples(a *G2, n int) []G2 {
	var d g2Jac
	d.fromAffine(a)
	d.double()
	twoA := d.affine()
	js := make([]g2Jac, n)
	js[0].fromAffine(a)
	for i := 1; i < n; i++ {
		js[i] = js[i-1]
		if !twoA.Inf {
			js[i].addMixed(twoA)
		}
	}
	return g2BatchAffine(js)
}

// addDigit adds the multiple a wNAF digit d selects from the odd-multiples
// table tab (entry i holds (2i+1)·P) to j.
func (j *g2Jac) addDigit(tab []G2, d int8) {
	if d == 0 {
		return
	}
	pt := tab[(max(d, -d)-1)/2]
	if pt.Inf {
		return
	}
	if d < 0 {
		pt.Neg(&pt)
	}
	j.addMixed(&pt)
}

// g2JointWNAF runs one doubling chain over two wNAF digit strings, each with
// its own odd-multiples table: Σ d1ᵢ2ⁱ·P1 + Σ d2ᵢ2ⁱ·P2. d2 may be empty.
func g2JointWNAF(d1 []int8, tab1 []G2, d2 []int8, tab2 []G2) (acc g2Jac) {
	acc.setInfinity()
	for i := max(len(d1), len(d2)) - 1; i >= 0; i-- {
		acc.double()
		if i < len(d1) {
			acc.addDigit(tab1, d1[i])
		}
		if i < len(d2) {
			acc.addDigit(tab2, d2[i])
		}
	}
	return acc
}

// g2JacMultWNAF computes k·a for any point a of the twist and any
// non-negative k, neither reduced nor assumed in the order-r subgroup (the
// cofactor clearing passes raw hash-to-curve points), by a width-5 wNAF
// ladder: ~k/6 additions instead of ~k/2. The result stays Jacobian so
// callers can keep adding.
func g2JacMultWNAF(a *G2, k *big.Int) g2Jac {
	return g2JointWNAF(wnafDigits(k, wnafWindow), g2OddMultiples(a, wnafTableSize), nil, nil)
}

// g2ScalarMultGLV computes k·a for a in the order-r subgroup and k ∈ [0, r)
// via the GLV decomposition and a joint wNAF ladder over the odd-multiple
// tables of a and φ(a), each negated up front when its half-scalar is.
func g2ScalarMultGLV(a *G2, k *big.Int) *G2 {
	if a.Inf || k.Sign() == 0 {
		return G2Infinity()
	}
	k1, k2 := glvSplit(k)
	tab := g2OddMultiples(a, wnafTableSize)
	tabPhi := make([]G2, len(tab))
	for i := range tab {
		// φ distributes over addition, so φ(table) is β·x on each entry.
		tabPhi[i] = tab[i]
		tabPhi[i].X.MulScalar(&tab[i].X, &glvBetaG2)
		if k1.Sign() < 0 {
			tab[i].Neg(&tab[i])
		}
		if k2.Sign() < 0 {
			tabPhi[i].Neg(&tabPhi[i])
		}
	}
	acc := g2JointWNAF(wnafDigits(k1.Abs(k1), wnafWindow), tab, wnafDigits(k2.Abs(k2), wnafWindow), tabPhi)
	return acc.affine()
}
