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
// order-r subgroup φ acts as multiplication by λ = 36u³ + 18u² + 6u + 1, a
// cube root of unity mod r. A 254-bit scalar k therefore splits as
// k ≡ k1 + k2·λ (mod r) with |k1|, |k2| ≈ √r ≈ 2^127, and
// k·P = k1·P + k2·φ(P) runs as a joint width-5 wNAF ladder of half the
// length: ~127 doublings instead of ~254.
//
// G2 has a better map (Galbraith–Lin–Scott): ψ = frobeniusTwist acts on it
// as μ = p mod r = 6u², whose minimal polynomial mod r has degree four, so
// a full-width scalar splits four ways, k ≡ k0 + k1·μ + k2·μ² + k3·μ³
// (mod r) with |kᵢ| ≈ r^(1/4) ≈ 2^64, and the walk is ~64 doublings long.
//
// Both splits are Babai rounding against a short basis written as
// polynomials in u (Galbraith–Scott), derived at init, checked to lie in
// the lattice, and the maps checked to act as their eigenvalues by a naive
// walk, so a transcription error aborts startup instead of corrupting
// scalar multiplications. Which cube root of unity β is (Fp has two) is
// resolved empirically: φ must act as λ, not λ².
//
// Every variable-base multiplication on either group is one walkWNAF over
// rows from glv.rows (a full-width G1 scalar) or gls.rows (a full-width G2
// scalar), through g1Joint or g2Joint.

// A scalarSplit is the Babai rounding of k ≡ Σ kᵢ·εⁱ (mod r) in limbs for
// an endomorphism acting as ε, from a short basis v₀…v_{dim−1} of the
// lattice {v : Σ vᵢ·εⁱ ≡ 0 (mod r)}. The coefficient of vⱼ in
// (1, 0, …)·B⁻¹ is cⱼ = ±a[j]/d, a[j] the cofactor of B's entry (j, 0) and
// d the determinant, in absolute value; g[j] = round(2^256·a[j]/d) is its
// fixed-point reciprocal. n[i][j] is coordinate i of -sign(cⱼ)·vⱼ, the
// amount part i picks up per unit of mⱼ = round(k·a[j]/d), as a
// two's-complement 256-bit integer.
type scalarSplit struct {
	dim  int
	g    [4]fp.Element
	a    [4][4]uint64
	d    [4]uint64
	half [5]uint64 // (d − 1)/2
	n    [4][4][4]uint64
}

var (
	// glvBeta is the cube root of unity in Fp with φ(P) = λ·P for glvLambda.
	glvBeta fp.Element
	// glvLambda is λ.
	glvLambda = uPoly(36, 18, 6, 1)
	// glv splits over λ, gls over μ.
	glv, gls scalarSplit
)

// uPoly returns Σ cᵢ·u^(len(c)−1−i), the coefficients highest first.
func uPoly(c ...int64) *big.Int {
	v := new(big.Int)
	for _, ci := range c {
		v.Mul(v, u).Add(v, big.NewInt(ci))
	}
	return v
}

func init() {
	// β = (-1 + √-3)/2 or β², the two primitive cube roots of unity in Fp:
	// pick the one whose φ(G) = (β·x, y) acts as λ on the generator, checked
	// by a one-row walk, which builds no φ table.
	var w fp.Element
	if glvBeta.Neg(new(fp.Element).SetUint64(3)); !glvBeta.Sqrt(&w, &glvBeta) {
		panic("bn254: -3 is not a square mod p")
	}
	glvBeta.Sub(&glvBeta, new(fp.Element).SetOne()).Halve(&glvBeta)
	g := G1Generator()
	lambdaRows := [][]int8{wnafDigits(nil, scalarLimbs(glvLambda), wnafWindow)}
	lg := g1Joint(g, lambdaRows)
	phi := func() *G1 { return &G1{X: *new(fp.Element).Mul(&g.X, &glvBeta), Y: g.Y} }
	if !phi().Equal(lg.affine(new(G1))) {
		if glvBeta.Square(&glvBeta); !phi().Equal(lg.affine(new(G1))) {
			panic("bn254: no cube root of unity acts as the GLV eigenvalue")
		}
	}
	mu := new(big.Int).Mod(P, Order)
	psiQ := new(G2).frobeniusTwist(g2Gen)
	muRows := [][]int8{wnafDigits(nil, scalarLimbs(mu), wnafWindow)}
	if mq := g2Joint([]*G2{g2Gen}, muRows); !psiQ.Equal(mq.affine(new(G2))) {
		panic("bn254: ψ does not act on G2 as p mod r")
	}
	glv = newScalarSplit(glvLambda, glvBasis())
	gls = newScalarSplit(mu, glsBasis())
}

// glvBasis and glsBasis are the short bases of the two splits' lattices,
// one vector per row (Galbraith–Scott). The ψ one has determinant -3r: it
// spans a sublattice of index 3, which Babai rounding needs no more than
// a basis.
func glvBasis() [][]*big.Int {
	return [][]*big.Int{{uPoly(2, 1), uPoly(-6, -2, 0)}, {uPoly(6, 4, 1), uPoly(2, 1)}}
}

func glsBasis() [][]*big.Int {
	return [][]*big.Int{
		{uPoly(1, 1), u, u, uPoly(-2, 0)},
		{uPoly(2, 1), uPoly(-1, 0), uPoly(-1, -1), uPoly(-1, 0)},
		{uPoly(2, 0), uPoly(2, 1), uPoly(2, 1), uPoly(2, 1)},
		{uPoly(1, -1), uPoly(4, 2), uPoly(-2, 1), uPoly(1, -1)},
	}
}

// newScalarSplit derives the rounding constants of a basis b of the
// lattice of eps after checking that every vector lies in it: cⱼ is
// cofⱼ/det for cofⱼ the cofactor of b[j][0], column 0 of the adjugate.
func newScalarSplit(eps *big.Int, b [][]*big.Int) (s scalarSplit) {
	s.dim = len(b)
	det := new(big.Int)
	cof := make([]*big.Int, s.dim)
	for j, v := range b {
		sum, pow := new(big.Int), big.NewInt(1)
		for _, c := range v {
			sum.Add(sum, new(big.Int).Mul(c, pow))
			pow.Mul(pow, eps).Mod(pow, Order)
		}
		if sum.Mod(sum, Order).Sign() != 0 {
			panic("bn254: a scalar-split basis vector is not in the lattice")
		}
		var minor [][]*big.Int
		for i, w := range b {
			if i != j {
				minor = append(minor, w[1:])
			}
		}
		cof[j] = detBig(minor)
		if j%2 == 1 {
			cof[j].Neg(cof[j])
		}
		det.Add(det, new(big.Int).Mul(v[0], cof[j]))
	}
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	absDet := new(big.Int).Abs(det)
	s.d = scalarLimbs(absDet)
	half := scalarLimbs(new(big.Int).Rsh(absDet, 1))
	copy(s.half[:], half[:])
	for j, c := range cof {
		a := new(big.Int).Abs(c)
		s.a[j] = scalarLimbs(a)
		g := new(big.Int).Lsh(a, 257)
		s.g[j] = fp.Element(scalarLimbs(g.Div(g, absDet).Add(g, big.NewInt(1)).Rsh(g, 1)))
		sign := big.NewInt(int64(-c.Sign() * det.Sign()))
		for i := range s.dim {
			n := new(big.Int).Mul(b[j][i], sign)
			s.n[i][j] = scalarLimbs(n.Mod(n, two256))
		}
	}
	return s
}

// detBig returns the determinant of a square integer matrix by cofactor
// expansion along its first row.
func detBig(m [][]*big.Int) *big.Int {
	if len(m) == 1 {
		return new(big.Int).Set(m[0][0])
	}
	d := new(big.Int)
	for j := range m {
		var minor [][]*big.Int
		for _, row := range m[1:] {
			minor = append(minor, append(append([]*big.Int{}, row[:j]...), row[j+1:]...))
		}
		t := detBig(minor)
		if t.Mul(t, m[0][j]); j%2 == 1 {
			t.Neg(t)
		}
		d.Add(d, t)
	}
	return d
}

// split decomposes k ∈ [0, r) as k ≡ Σ ±partsᵢ·εⁱ (mod r), returning the
// magnitudes and signs of the dim parts, each bounded by the basis
// (TestGLVSplitBounds pins the halves below 2^130, TestGLSSplitBounds the
// quarters below 2^66). Babai rounding: subtract from (k, 0, …) its
// closest lattice approximation Σ mⱼ·vⱼ, mⱼ rounded exactly, as
// math/big would (TestGLSSplitVsExactBabai). All of it is 256-bit limb
// arithmetic modulo 2^256; the parts are far shorter, so their
// two's-complement sign bit is exact.
func (s *scalarSplit) split(k *[4]uint64) (parts [4][4]uint64, negs [4]bool) {
	parts[0] = *k
	for j := range s.dim {
		m := s.round(k, j)
		for i := range s.dim {
			var p fp.Wide // parts[i] += mⱼ·n[i][j] mod 2^256
			p.Mul((*fp.Element)(&m), (*fp.Element)(&s.n[i][j]))
			var c uint64
			for x := range parts[i] {
				parts[i][x], c = bits.Add64(parts[i][x], p[x], c)
			}
		}
	}
	for i := range s.dim { // |parts[i]|
		mask := -(parts[i][3] >> 63)
		c := mask & 1
		for x := range parts[i] {
			parts[i][x], c = bits.Add64(parts[i][x]^mask, 0, c)
		}
		negs[i] = mask != 0
	}
	return parts, negs
}

// round returns mⱼ = round(k·a[j]/d). The fixed-point product k·g[j]/2^256
// is within 1/8 of k·a[j]/d, so its rounding m is off by at most one: up
// when k·a[j] − m·d > h for h = (d − 1)/2 (d is r or 3r, odd), down when
// it is below −h. That settles the near-ties a fixed-point rounding gets
// wrong, which the Lagrange coefficients −1/2 and 3/2 of a 2-of-3 combine
// sit on: the exact split of each has a part of ±1, a row of one digit.
func (s *scalarSplit) round(k *[4]uint64, j int) (m [4]uint64) {
	var w, v fp.Wide
	w.Mul((*fp.Element)(k), &s.g[j])
	c := w[3] >> 63
	for x := range m {
		m[x], c = bits.Add64(w[4+x], 0, c)
	}
	w.Mul((*fp.Element)(k), (*fp.Element)(&s.a[j]))
	v.Mul((*fp.Element)(&m), (*fp.Element)(&s.d))
	// |k·a − m·d| < 1.5d < 2^257: five limbs carry the difference and the
	// top limbs of h − diff and diff + h their signs.
	var diff, up, down, b, bu, bd uint64
	for x := range s.half {
		diff, b = bits.Sub64(w[x], v[x], b)
		up, bu = bits.Sub64(s.half[x], diff, bu)
		down, bd = bits.Add64(diff, s.half[x], bd)
	}
	step := uint64(0)
	if up>>63 == 1 {
		step = 1
	} else if down>>63 == 1 {
		step = ^uint64(0)
	}
	c = 0
	for x := range m {
		m[x], c = bits.Add64(m[x], step, c)
		step = -(step >> 63) // -1 extends its sign, +1 does not
	}
	return m
}

// rows recodes at most 2·jointSlice/dim scalars into buf in the row order
// of g1Joint and g2Joint, ksᵢ ≡ Σₕ rows[h·len(ks)+i]·εʰ (mod r), a negative
// part's digits negated so that the tables stay those of εʰ(P). The rows
// come back by value: stored through a pointer they would move buf to the
// heap.
func (s *scalarSplit) rows(buf *[2 * jointSlice][halfDigits]int8, ks []fr.Element) (rows [2 * jointSlice][]int8) {
	for i := range ks {
		limbs := ks[i].Limbs()
		parts, negs := s.split(&limbs)
		for h := range s.dim {
			r := h*len(ks) + i
			rows[r] = wnafDigits(buf[r][:0], parts[h], wnafWindow)
			if negs[h] {
				for x := range rows[r] {
					rows[r][x] = -rows[r][x]
				}
			}
		}
	}
	return rows
}

// jointSlice is how many G2 points share one doubling chain and one table
// build, all on the stack; longer inputs run slice by slice.
const jointSlice = 8

// glsSlice is how many G2 points share one ψ-split walk: four rows each
// fill the row buffer and table of jointSlice two-row points.
const glsSlice = jointSlice / 2

// g1OddMultiples fills tab's first wnafTableSize entries with
// [P, 3P, 5P, …] in affine coordinates, by Jacobian additions of the affine
// 2P and one batched normalization. A tab twice as long takes the row of
// φ(P) after them: φ is additive, so β·x on each entry.
func g1OddMultiples(tab []G1, p *G1) {
	var js [wnafTableSize]g1Jac
	var p2 G1
	js[0].fromAffine(p)
	js[0].double()
	js[0].affine(&p2)
	js[0].fromAffine(p)
	for k := 1; k < len(js); k++ {
		js[k] = js[k-1]
		if !p2.Inf { // the identity, or two-torsion (y = 0)
			js[k].addMixed(&p2)
		}
	}
	g1BatchAffine(tab[:wnafTableSize], js[:])
	for i := range tab[wnafTableSize:] {
		tab[wnafTableSize+i] = tab[i]
		tab[wnafTableSize+i].X.Mul(&tab[i].X, &glvBeta)
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

// g1Joint returns the Jacobian sum the rows select for one point p: row 0
// holds the digits of p and a second row those of φ(p). One table build,
// one walk.
func g1Joint(p *G1, rows [][]int8) g1Jac {
	var tab [2 * wnafTableSize]G1
	g1OddMultiples(tab[:len(rows)*wnafTableSize], p)
	var acc g1Jac
	acc.setInfinity()
	walkWNAF(rows, acc.double, func(r int, d int8) { acc.addDigit(tab[r*wnafTableSize:], d) })
	return acc
}

// g2OddMultiples fills tab with size odd multiples [Pᵢ, 3Pᵢ, …] per point
// in affine coordinates, as g1OddMultiples does, and each block after the
// first with ψ of the block before: the entries of ψʰ(Pᵢ), ψ being
// additive. A table of one entry per point is the points themselves, with
// no normalization.
func g2OddMultiples(tab []G2, pts []*G2, size int) {
	m := len(pts) * size
	if size == 1 {
		for i, p := range pts {
			tab[i] = *p
		}
	} else if size == 2 { // 3P as the Jacobian 2P plus the affine P: one normalization
		var js [2 * jointSlice]g2Jac
		for i, p := range pts {
			js[2*i].fromAffine(p)
			js[2*i+1] = js[2*i]
			js[2*i+1].double()
			js[2*i+1].addMixed(p) // P = O: O + O
		}
		g2BatchAffine(tab[:m], js[:m])
	} else if size > 2 {
		var js [jointSlice * wnafTableSize]g2Jac
		for i, p := range pts {
			js[i].fromAffine(p)
			js[i].double()
		}
		g2BatchAffine(tab[:len(pts)], js[:len(pts)])
		for i, p := range pts {
			row := js[i*size:][:size]
			row[0].fromAffine(p)
			for k := 1; k < len(row); k++ {
				row[k] = row[k-1]
				if !tab[i].Inf {
					row[k].addMixed(&tab[i])
				}
			}
		}
		g2BatchAffine(tab[:m], js[:m])
	}
	for i := range tab[m:] {
		tab[m+i].frobeniusTwist(&tab[i])
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

// g2Joint is g1Joint on the twist for at most jointSlice points: row
// h·len(pts)+i holds the digits of ψʰ(pts[i]). The tables stop at the
// largest digit the rows use.
func g2Joint(pts []*G2, rows [][]int8) g2Jac {
	size := 0
	for _, row := range rows {
		for _, d := range row {
			size = max(size, (int(max(d, -d))+1)/2)
		}
	}
	var tab [2 * jointSlice * wnafTableSize]G2
	g2OddMultiples(tab[:len(rows)*size], pts, size)
	var acc g2Jac
	acc.setInfinity()
	walkWNAF(rows, acc.double, func(r int, d int8) { acc.addDigit(tab[r*size:], d) })
	return acc
}
