package bn254

import (
	"bytes"
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"mccls/internal/bn254/fr"
)

// Differential tests for the fast scalar-multiplication and pairing kernels
// against the slow paths they replaced: GLV+wNAF vs the plain Jacobian
// ladder, the fixed-base table vs the generic ladder, the projective sparse
// Miller loop vs the affine dense one, and the cyclotomic exponentiation vs
// generic square-and-multiply.

func randG1(t *testing.T, k *big.Int) *G1 {
	t.Helper()
	return g1ScalarMultJac(G1Generator(), new(big.Int).Mod(k, Order))
}

// splitBig runs a limb-typed split on a reduced big.Int scalar and returns
// its signed parts.
func splitBig(s *scalarSplit, k *big.Int) []*big.Int {
	limbs := scalarLimbs(k)
	abs, negs := s.split(&limbs)
	parts := make([]*big.Int, s.dim)
	for i := range parts {
		parts[i] = new(big.Int)
		for j := 3; j >= 0; j-- {
			parts[i].Lsh(parts[i], 64).Or(parts[i], new(big.Int).SetUint64(abs[i][j]))
		}
		if negs[i] {
			parts[i].Neg(parts[i])
		}
	}
	return parts
}

// glvSplitBig is splitBig for the GLV halves.
func glvSplitBig(k *big.Int) (k1, k2 *big.Int) {
	parts := splitBig(&glv, k)
	return parts[0], parts[1]
}

// g1MultGLV runs the GLV rows through the joint engine on a big.Int scalar.
func g1MultGLV(a *G1, k *big.Int) *G1 { return new(G1).ScalarMultFr(a, frFromBig(k)) }

// TestGLVSplitBounds checks that the Babai decomposition really produces
// half-length sub-scalars (|k1|, |k2| < 2^130 — the theoretical bound is
// ~√r ≈ 2^127 plus the lattice covering radius) and that it is a
// decomposition at all: k1 + k2·λ ≡ k (mod r).
func TestGLVSplitBounds(t *testing.T) {
	bound := new(big.Int).Lsh(big.NewInt(1), 130)
	r := testRand()
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(glvLambda),
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, randScalar(r))
	}
	for _, k := range cases {
		k1, k2 := glvSplitBig(k)
		if new(big.Int).Abs(k1).Cmp(bound) >= 0 || new(big.Int).Abs(k2).Cmp(bound) >= 0 {
			t.Fatalf("sub-scalar exceeds 2^130 for k=%v: k1=%v k2=%v", k, k1, k2)
		}
		recomposed := new(big.Int).Mul(k2, glvLambda)
		recomposed.Add(recomposed, k1)
		recomposed.Mod(recomposed, Order)
		if recomposed.Cmp(new(big.Int).Mod(k, Order)) != 0 {
			t.Fatalf("k1 + k2·λ ≢ k for k=%v", k)
		}
	}
}

// checkSplitVsExactBabai holds a limb split to exact Babai rounding over
// math/big: row 0 of B⁻¹ by Gaussian elimination over big.Rat, then
// cⱼ = round(k·B⁻¹[0][j]) and parts (k, 0, …) − Σ cⱼ·vⱼ, on random scalars
// and on the Lagrange coefficients of a 2-of-3 combine, whose coefficients
// sit near half-integers. (No cⱼ is a tie: that would need r | 2k·aⱼ.)
func checkSplitVsExactBabai(t *testing.T, s *scalarSplit, b [][]*big.Int) {
	t.Helper()
	dim := len(b)
	// Solve x·B = (1, 0, …): the augmented system Bᵀ | e₀.
	m := make([][]*big.Rat, dim)
	for i := range m {
		for j := range dim {
			m[i] = append(m[i], new(big.Rat).SetInt(b[j][i]))
		}
		m[i] = append(m[i], big.NewRat(int64(1-min(i, 1)), 1))
	}
	for c := range dim {
		piv := c
		for m[piv][c].Sign() == 0 {
			piv++
		}
		m[c], m[piv] = m[piv], m[c]
		for i := range dim {
			if i != c && m[i][c].Sign() != 0 {
				f := new(big.Rat).Quo(m[i][c], m[c][c])
				for j := c; j <= dim; j++ {
					m[i][j] = new(big.Rat).Sub(m[i][j], new(big.Rat).Mul(f, m[c][j]))
				}
			}
		}
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), Order)
	ks := []*big.Int{big.NewInt(2), big.NewInt(3), new(big.Int).Sub(Order, big.NewInt(1)), new(big.Int).Sub(Order, big.NewInt(2)),
		new(big.Int).Mod(new(big.Int).Mul(big.NewInt(3), inv2), Order), new(big.Int).Sub(Order, inv2)}
	r := testRand()
	for range 300 {
		ks = append(ks, randScalar(r))
	}
	for _, k := range ks {
		want := make([]*big.Int, dim)
		for i := range want {
			want[i] = new(big.Int)
		}
		want[0].Set(k)
		for j := range dim { // cⱼ = floor(k·xⱼ + 1/2); big.Int Div is Euclidean
			y := new(big.Rat).Mul(new(big.Rat).SetInt(k), new(big.Rat).Quo(m[j][dim], m[j][j]))
			y.Add(y, big.NewRat(1, 2))
			c := new(big.Int).Div(y.Num(), y.Denom())
			for i := range dim {
				want[i].Sub(want[i], new(big.Int).Mul(c, b[j][i]))
			}
		}
		if got := splitBig(s, k); !slices.EqualFunc(got, want, func(x, y *big.Int) bool { return x.Cmp(y) == 0 }) {
			t.Fatalf("split(%v) = %v, exact Babai %v", k, got, want)
		}
	}
}

// TestGLVSplitVsExactBabai holds the GLV halves to exact Babai rounding.
func TestGLVSplitVsExactBabai(t *testing.T) { checkSplitVsExactBabai(t, &glv, glvBasis()) }

// glsMu is μ = p mod r, the eigenvalue of ψ on G2.
var glsMu = new(big.Int).Mod(P, Order)

// glsRecompose returns Σ partsᵢ·μⁱ mod r.
func glsRecompose(parts []*big.Int) *big.Int {
	sum, pow := new(big.Int), big.NewInt(1)
	for _, c := range parts {
		sum.Add(sum, new(big.Int).Mul(c, pow))
		pow.Mul(pow, glsMu).Mod(pow, Order)
	}
	return sum.Mod(sum, Order)
}

// TestGLSSplitBounds checks that the ψ split is a decomposition,
// Σ kᵢ·μⁱ ≡ k (mod r), into parts below 2^66 (r^(1/4) ≈ 2^64 plus the
// rounding), on 0, 1, r − 1, the powers of μ, multiples of each basis
// vector's first coordinate and random scalars; and that each basis
// vector really is in the lattice.
func TestGLSSplitBounds(t *testing.T) {
	bound := new(big.Int).Lsh(big.NewInt(1), 66)
	cases := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(Order, big.NewInt(1))}
	pow := big.NewInt(1)
	for range 3 {
		pow = new(big.Int).Mod(new(big.Int).Mul(pow, glsMu), Order)
		cases = append(cases, pow, new(big.Int).Sub(Order, pow))
	}
	for _, v := range glsBasis() {
		if glsRecompose(v).Sign() != 0 {
			t.Fatalf("basis vector %v is not in the lattice", v)
		}
		for _, m := range []*big.Int{big.NewInt(1), big.NewInt(3), big.NewInt(-1), new(big.Int).Lsh(big.NewInt(1), 63), new(big.Int).Lsh(big.NewInt(1), 130)} {
			cases = append(cases, new(big.Int).Mod(new(big.Int).Mul(m, v[0]), Order))
		}
	}
	r := testRand()
	for range 300 {
		cases = append(cases, randScalar(r))
	}
	for _, k := range cases {
		parts := splitBig(&gls, k)
		for _, c := range parts {
			if new(big.Int).Abs(c).Cmp(bound) >= 0 {
				t.Fatalf("ψ split of %v = %v: a part reaches 2^66", k, parts)
			}
		}
		if glsRecompose(parts).Cmp(k) != 0 {
			t.Fatalf("ψ split of %v = %v does not recompose", k, parts)
		}
	}
}

// TestGLSSplitVsExactBabai holds the ψ split's parts to exact Babai
// rounding.
func TestGLSSplitVsExactBabai(t *testing.T) { checkSplitVsExactBabai(t, &gls, glsBasis()) }

// TestG1GLVMatchesJacobian drives the GLV ladder against the plain Jacobian
// ladder on random points and scalars.
func TestG1GLVMatchesJacobian(t *testing.T) {
	f := func(pSeed, kSeed int64) bool {
		p := randG1(t, big.NewInt(pSeed))
		k := new(big.Int).Mod(new(big.Int).Mul(big.NewInt(kSeed), new(big.Int).Lsh(big.NewInt(kSeed), 120)), Order)
		return g1MultGLV(p, k).Equal(g1ScalarMultJac(p, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
	// Full-width random scalars and edge scalars on a random point.
	r := testRand()
	p := randG1(t, randScalar(r))
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(glvLambda),
		new(big.Int).Sub(Order, glvLambda),
	}
	for i := 0; i < 16; i++ {
		edges = append(edges, randScalar(r))
	}
	for _, k := range edges {
		if !g1MultGLV(p, k).Equal(g1ScalarMultJac(p, k)) {
			t.Fatalf("GLV diverges from Jacobian ladder at k=%v", k)
		}
	}
	if !g1MultGLV(G1Infinity(), big.NewInt(7)).IsInfinity() {
		t.Fatal("GLV of infinity is not infinity")
	}
}

// TestG1FixedBaseMatchesJacobian drives the fixed-base table path against
// the generic ladder on the generator.
func TestG1FixedBaseMatchesJacobian(t *testing.T) {
	r := testRand()
	g := G1Generator()
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(255), big.NewInt(256),
		new(big.Int).Sub(Order, big.NewInt(1)),
	}
	for i := 0; i < 24; i++ {
		ks = append(ks, randScalar(r))
	}
	for _, k := range ks {
		if !new(G1).ScalarBaseMult(k).Equal(g1ScalarMultJac(g, k)) {
			t.Fatalf("fixed-base table diverges from ladder at k=%v", k)
		}
	}
}

// TestScalarBaseMultAdd checks the fused k·G + q path, including the
// cancellation case k·G + (-k·G) = O and a nil/identity extra, and
// EqualBaseMultAddMany's compare, on one index, against the affine sum and
// its neighbours: the negated sum (same x), the sum plus G, and the identity.
func TestScalarBaseMultAdd(t *testing.T) {
	r := testRand()
	for i := 0; i < 8; i++ {
		k := randScalar(r)
		q := randG1(t, randScalar(r))
		want := new(G1).Add(g1ScalarMultJac(G1Generator(), k), q)
		if !new(G1).ScalarBaseMultAdd(k, q).Equal(want) {
			t.Fatalf("ScalarBaseMultAdd diverges at iteration %d", i)
		}
		kf := frFromBig(k)
		if !equalOne(want, kf, q) {
			t.Fatalf("EqualBaseMultAddMany rejects k·G + q at iteration %d", i)
		}
		for _, other := range []*G1{new(G1).Neg(want), new(G1).Add(want, G1Generator()), G1Infinity()} {
			if equalOne(other, kf, q) {
				t.Fatalf("EqualBaseMultAddMany accepts %v for k·G + q at iteration %d", other, i)
			}
		}
	}
	k := randScalar(r)
	neg := new(G1).Neg(g1ScalarMultJac(G1Generator(), k))
	if !new(G1).ScalarBaseMultAdd(k, neg).IsInfinity() {
		t.Fatal("k·G - k·G should be the identity")
	}
	if !equalOne(G1Infinity(), frFromBig(k), neg) || equalOne(G1Generator(), frFromBig(k), neg) {
		t.Fatal("EqualBaseMultAddMany: k·G - k·G is the identity and only the identity")
	}
	if !new(G1).ScalarBaseMultAdd(big.NewInt(0), G1Infinity()).IsInfinity() {
		t.Fatal("0·G + O should be the identity")
	}
	if !new(G1).ScalarBaseMultAdd(k, G1Infinity()).Equal(new(G1).ScalarBaseMult(k)) {
		t.Fatal("identity extra should be a no-op")
	}
}

// TestG2WNAFMatchesJacobian drives the width-5 wNAF G2 ladder against the
// plain Jacobian ladder, including unreduced cofactor-sized scalars as used
// by HashToG2 and the subgroup check.
func TestG2WNAFMatchesJacobian(t *testing.T) {
	r := testRand()
	q := g2BaseMult(randScalar(r))
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(g2Cofactor), // wider than r: exercises the unreduced path
		new(big.Int).Mul(Order, big.NewInt(3)),
	}
	for i := 0; i < 12; i++ {
		ks = append(ks, randScalar(r))
	}
	for _, k := range ks {
		if !g2ScalarMultWNAF(q, k).Equal(g2ScalarMultJac(q, k)) {
			t.Fatalf("G2 wNAF diverges from Jacobian ladder at k=%v", k)
		}
	}
	if !g2ScalarMultWNAF(G2Infinity(), big.NewInt(5)).IsInfinity() {
		t.Fatal("wNAF of infinity is not infinity")
	}
}

// TestWnafDigitsRecompose checks the recoding invariants directly: digits
// recompose to the scalar, every nonzero digit is odd and |d| ≤ 15.
func TestWnafDigitsRecompose(t *testing.T) {
	r := testRand()
	for i := 0; i < 50; i++ {
		k := randScalar(r)
		digits := wnafDigits(nil, scalarLimbs(k), wnafWindow)
		if !slices.Equal(digits, wnafDigitsBig(k, wnafWindow)) {
			t.Fatalf("limb wNAF of %v differs from the big.Int recoding", k)
		}
		acc := new(big.Int)
		for j := len(digits) - 1; j >= 0; j-- {
			acc.Lsh(acc, 1)
			acc.Add(acc, big.NewInt(int64(digits[j])))
			if d := digits[j]; d != 0 && (d%2 == 0 || d > 15 || d < -15) {
				t.Fatalf("invalid wNAF digit %d", d)
			}
		}
		if acc.Cmp(k) != 0 {
			t.Fatalf("wNAF digits do not recompose: got %v want %v", acc, k)
		}
		naf := wnafDigits(nil, scalarLimbs(k), 2)
		for j := 1; j < len(naf); j++ {
			if naf[j] != 0 && naf[j-1] != 0 {
				t.Fatal("adjacent nonzero NAF digits")
			}
		}
		if acc := recompose(naf); acc.Cmp(k) != 0 {
			t.Fatalf("NAF digits do not recompose: got %v want %v", acc, k)
		}
	}
}

// recompose evaluates Σ dᵢ·2ⁱ for a little-endian signed-digit slice.
func recompose(digits []int8) *big.Int {
	acc := new(big.Int)
	for i := len(digits) - 1; i >= 0; i-- {
		acc.Lsh(acc, 1)
		acc.Add(acc, big.NewInt(int64(digits[i])))
	}
	return acc
}

// TestAteNAFRecomposes pins the two init-time recodings the pairing walks:
// ateNAF is the non-adjacent form of 6u+2 (66 digits, 22 nonzero — the
// numbers the Miller-loop op counts are derived from), uWNAF a width-4
// wNAF of u whose digits index the ladder's four-entry odd-power table.
func TestAteNAFRecomposes(t *testing.T) {
	if got := recompose(ateNAF); got.Cmp(ateLoopCount) != 0 {
		t.Fatalf("ateNAF recomposes to %v, want 6u+2 = %v", got, ateLoopCount)
	}
	weight := 0
	for i, d := range ateNAF {
		if d < -1 || d > 1 {
			t.Fatalf("ateNAF digit %d out of range", d)
		}
		if d != 0 {
			weight++
			if i > 0 && ateNAF[i-1] != 0 {
				t.Fatalf("ateNAF has adjacent nonzero digits at %d", i)
			}
		}
	}
	if len(ateNAF) != 66 || weight != 22 || ateNAF[len(ateNAF)-1] != 1 {
		t.Fatalf("ateNAF has length %d, weight %d, top digit %d; want 66, 22, 1",
			len(ateNAF), weight, ateNAF[len(ateNAF)-1])
	}

	if got := recompose(uWNAF); got.Cmp(u) != 0 {
		t.Fatalf("uWNAF recomposes to %v, want u = %v", got, u)
	}
	for _, d := range uWNAF {
		if d != 0 && (d%2 == 0 || d > 7 || d < -7) {
			t.Fatalf("uWNAF digit %d does not index the odd-power table", d)
		}
	}
	if uWNAF[len(uWNAF)-1] <= 0 {
		t.Fatal("uWNAF does not end on a positive digit")
	}
}

// TestCyclotomicSquareMatchesGeneric checks the Granger–Scott squaring
// against the generic Fp12 squaring on cyclotomic-subgroup elements (where
// it is only valid) produced by the easy part of the final exponentiation.
func TestCyclotomicSquareMatchesGeneric(t *testing.T) {
	r := testRand()
	for i := 0; i < 6; i++ {
		p := new(G1).ScalarBaseMult(randScalar(r))
		q := g2BaseMult(randScalar(r))
		u := new(Fp12).easyPart(millerLoop(p, q))
		fast := new(Fp12).CyclotomicSquare(u)
		generic := new(Fp12).Square(u)
		if !fast.Equal(generic) {
			t.Fatalf("cyclotomic squaring diverges on unitary element (iteration %d)", i)
		}
	}
}

// TestExpByUMatchesExp checks the one cyclotomic ladder against plain
// square-and-multiply on both of its callers: the init-time digit table of
// u on easy-part outputs (what the final exponentiation feeds it), and
// GT.Exp's per-call recoding on edge and random 254-bit scalars.
func TestExpByUMatchesExp(t *testing.T) {
	r := testRand()
	var base *Fp12
	for i := 0; i < 4; i++ {
		p := new(G1).ScalarBaseMult(randScalar(r))
		q := g2BaseMult(randScalar(r))
		base = new(Fp12).easyPart(millerLoop(p, q))
		if fast, naive := new(Fp12).ExpCyclotomic(base, uWNAF), new(Fp12).Exp(base, u); !fast.Equal(naive) {
			t.Fatalf("digit-table exp-by-u diverges from the generic ladder (iteration %d)", i)
		}
		// Aliased receiver, as finalExponentiation's chain could use it.
		if z := new(Fp12).Set(base); !z.ExpCyclotomic(z, uWNAF).Equal(new(Fp12).Exp(base, u)) {
			t.Fatalf("aliased exp-by-u diverges (iteration %d)", i)
		}
	}

	gt := &GT{v: finalExponentiation(new(Fp12), base)}
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(7), big.NewInt(8),
		new(big.Int).Sub(Order, big.NewInt(1)), new(big.Int).Set(u),
	}
	for i := 0; i < 6; i++ {
		exps = append(exps, randScalar(r))
	}
	for _, e := range exps {
		if fast, naive := new(GT).Exp(gt, frFromBig(e)).v, new(Fp12).Exp(gt.v, e); !fast.Equal(naive) {
			t.Fatalf("GT.Exp diverges from the generic ladder at e=%v", e)
		}
	}
	if inv := new(GT).Exp(gt, frFromBig(big.NewInt(-1))); !inv.Mul(inv, gt).IsOne() {
		t.Fatal("GT.Exp(-1) is not the inverse")
	}
}

// TestMillerLoopSparseMatchesNaive compares the projective sparse Miller
// loop with the affine dense oracle. The two unreduced values differ by an
// Fp2 factor (the projective line drops denominators), and any Fp2 factor
// is killed by the easy part of the final exponentiation — so equality is
// asserted on the reduced pairing values.
func TestMillerLoopSparseMatchesNaive(t *testing.T) {
	r := testRand()
	for i := 0; i < 4; i++ {
		p := new(G1).ScalarBaseMult(randScalar(r))
		q := g2BaseMult(randScalar(r))
		fast := finalExponentiation(new(Fp12), millerLoop(p, q))
		naive := finalExponentiation(new(Fp12), millerLoopNaive(p, q))
		if !fast.Equal(naive) {
			t.Fatalf("projective sparse Miller loop diverges from affine oracle (iteration %d)", i)
		}
	}
}

// TestMulByLineMatchesDense checks the hand-scheduled sparse multiplication
// against a dense multiply by the expanded line.
func TestMulByLineMatchesDense(t *testing.T) {
	r := testRand()
	for i := 0; i < 8; i++ {
		z := &Fp12{}
		for k := range z.C {
			z.C[k] = *randFp2(r)
		}
		l := lineEval{c0: *randFp2(r), c1: *randFp2(r), c3: *randFp2(r)}
		dense := new(Fp12).Mul(z, l.fp12())
		sparse := new(Fp12).Set(z).mulByLine(&l)
		if !sparse.Equal(dense) {
			t.Fatalf("sparse line multiplication diverges (iteration %d)", i)
		}
		// A nil c0 is the normalised line 1 + c1·w + c3·w³.
		l.c0 = *Fp2One()
		dense = new(Fp12).Mul(z, l.fp12())
		if unit := new(Fp12).Set(z).mulBySparse(nil, &l.c1, &l.c3); !unit.Equal(dense) {
			t.Fatalf("unit-line multiplication diverges (iteration %d)", i)
		}
	}
}

// TestMillerLoopOpCounts pins the line-operation profile of the shipped
// one-pair Miller loop to the ate-loop structure, derived from ateNAF rather
// than literals: one doubling step and one accumulator squaring per digit
// below the top one; one addition step per nonzero digit below the top, plus
// the two Frobenius correction lines; one sparse multiplication per line. A
// refactor that silently falls back to the binary walk, or to dense or
// generic arithmetic, changes these counts and fails here.
func TestMillerLoopOpCounts(t *testing.T) {
	r := testRand()
	p := new(G1).ScalarBaseMult(randScalar(r))
	q := g2BaseMult(randScalar(r))

	wantDoubles, wantAdds := ateLineCounts()

	before := ReadOpCounts()
	f := MillerLoopMulti([]*G1{p}, []*G2{q})
	d := ReadOpCounts().Sub(before)
	if d.LineDoubles != wantDoubles || d.MillerSquarings != wantDoubles {
		t.Fatalf("Miller loop ran %d doubling steps and %d accumulator squarings, want %d of each",
			d.LineDoubles, d.MillerSquarings, wantDoubles)
	}
	if d.LineAdds != wantAdds {
		t.Fatalf("Miller loop ran %d addition steps, want %d", d.LineAdds, wantAdds)
	}
	if want := wantDoubles + wantAdds; d.SparseMuls != want {
		t.Fatalf("Miller loop ran %d sparse multiplications, want %d", d.SparseMuls, want)
	}

	// The final exponentiation must run its squarings cyclotomically: three
	// exponentiations by u (one squaring per digit of uWNAF, the top digit's
	// going to the odd-power table instead) plus the chain's four — and, in
	// particular, more than zero.
	before = ReadOpCounts()
	finalExponentiation(new(Fp12), f)
	d = ReadOpCounts().Sub(before)
	if want := uint64(3*len(uWNAF) + 4); d.CycSquares != want {
		t.Fatalf("final exponentiation used %d cyclotomic squarings, want %d — fell back to generic?", d.CycSquares, want)
	}
}

// FuzzG1ScalarMultVsNaive drives the full G1 fast path (GLV + wNAF + batch
// normalization) against the affine double-and-add oracle on fuzzed scalars.
func FuzzG1ScalarMultVsNaive(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{1}, []byte{255, 255, 255, 255})
	ordm1 := new(big.Int).Sub(Order, big.NewInt(1))
	f.Add(ordm1.Bytes(), ordm1.Bytes())
	f.Fuzz(func(t *testing.T, pBytes, kBytes []byte) {
		pScalar := new(big.Int).Mod(new(big.Int).SetBytes(pBytes), Order)
		k := new(big.Int).Mod(new(big.Int).SetBytes(kBytes), Order)
		p := g1ScalarMultJac(G1Generator(), pScalar)
		want := g1ScalarMultAffine(p, k)
		if got := new(G1).ScalarMult(p, k); !got.Equal(want) {
			t.Fatalf("G1 fast path diverges: point seed %v scalar %v", pScalar, k)
		}
		if pScalar.Sign() != 0 {
			// p here is k·G for known k, so the fixed-base path must agree.
			if got := new(G1).ScalarBaseMult(pScalar); !got.Equal(p) {
				t.Fatalf("fixed-base path diverges at k=%v", pScalar)
			}
		}
	})
}

// FuzzG2ScalarMultVsNaive drives the G2 wNAF ladder against the affine
// oracle, including scalars wider than the group order, and G2.ScalarMult
// (the ψ split) against it modulo r. Seeds include the Lagrange
// coefficients a 2-of-3 combine meets: 2 and −1, 3 and −2, 3/2 and −1/2.
func FuzzG2ScalarMultVsNaive(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{2}, new(big.Int).Mul(Order, big.NewInt(2)).Bytes())
	inv2 := new(big.Int).ModInverse(big.NewInt(2), Order)
	for i, k := range []*big.Int{
		big.NewInt(2), big.NewInt(-1), big.NewInt(3), big.NewInt(-2),
		new(big.Int).Mul(big.NewInt(3), inv2), new(big.Int).Neg(inv2),
	} {
		f.Add([]byte{byte(7 + i)}, k.Mod(k, Order).Bytes())
	}
	f.Fuzz(func(t *testing.T, qBytes, kBytes []byte) {
		qScalar := new(big.Int).Mod(new(big.Int).SetBytes(qBytes), Order)
		k := new(big.Int).SetBytes(kBytes)
		if k.BitLen() > 512 {
			k.Rsh(k, uint(k.BitLen()-512)) // keep the naive oracle fast
		}
		q := g2ScalarMultJac(G2Generator(), qScalar)
		want := g2ScalarMultAffine(q, k)
		if got := g2ScalarMultWNAF(q, k); !got.Equal(want) {
			t.Fatalf("G2 wNAF diverges: point seed %v scalar %v", qScalar, k)
		}
		if got := new(G2).ScalarMult(q, k); !got.Equal(want) {
			t.Fatalf("G2 ψ split diverges: point seed %v scalar %v", qScalar, k)
		}
	})
}

// endoEntry is the wire form of one fuzzed (point, scalar) pair: a point
// byte (0 the identity, otherwise (s & 0x7f)·G, negated when the top bit is
// set) and two halves a, b as 9 big-endian bytes each, the scalar being
// a + b·λ mod r: full width for most pairs, short when b is zero.
const endoEntry = 1 + 9 + 9

// endoCase packs (point byte, a, b) triples into fuzz input.
func endoCase(entries ...[3]uint64) []byte {
	var out []byte
	for _, e := range entries {
		out = append(out, byte(e[0]))
		for _, half := range e[1:] {
			out = append(out, 0)
			out = append(out, new(big.Int).SetUint64(half).FillBytes(make([]byte, 8))...)
		}
	}
	return out
}

// endoParse decodes at most 9 entries (one past jointSlice) into the
// scalars a + b·λ mod r over math/big and the point multipliers.
func endoParse(data []byte) (ks []*big.Int, mults []int64) {
	for ; len(data) >= endoEntry && len(ks) <= jointSlice; data = data[endoEntry:] {
		m := int64(data[0] & 0x7f)
		if data[0]&0x80 != 0 {
			m = -m
		}
		a, b := new(big.Int).SetBytes(data[1:10]), new(big.Int).SetBytes(data[10:19])
		k := new(big.Int).Mul(b, glvLambda)
		ks = append(ks, k.Add(k, a).Mod(k, Order))
		mults = append(mults, m)
	}
	return ks, mults
}

// FuzzG2JointEndoVsNaive drives MultiScalarMultFr, the joint ψ-split
// ladder, against Σ kᵢ·Pᵢ term by term over math/big on subgroup points:
// scalar i is aᵢ + bᵢ·λ mod r, negated when bit i of neg is set. The seeds
// cover the identity, zero and r−1 scalars, a repeated point (k·P − k·P,
// the doubling and cancel branches) and nine points, one past a slice.
func FuzzG2JointEndoVsNaive(f *testing.F) {
	const max64 = ^uint64(0)
	f.Add(endoCase([3]uint64{1, 5, 7}), uint64(0))
	f.Add(endoCase([3]uint64{9, max64, max64}), uint64(1))
	f.Add(endoCase([3]uint64{0, 3, 4}, [3]uint64{2, 3, 4}), uint64(2))
	f.Add(endoCase([3]uint64{3, 0, max64}, [3]uint64{4, max64, 0}, [3]uint64{5, 0, 0}), max64)
	f.Add(endoCase([3]uint64{6, 11, 13}, [3]uint64{6, 11, 13}), uint64(3))
	f.Add(endoCase([3]uint64{7, 11, 13}, [3]uint64{0x87, 11, 13}), uint64(4))
	wide := append([]byte{8}, bytes.Repeat([]byte{0x3f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 2)...)
	f.Add(wide, uint64(5))
	var nine [][3]uint64
	for i := uint64(1); i <= jointSlice+1; i++ {
		nine = append(nine, [3]uint64{10 + i, max64 - i, i * i * 0x9e3779b97f4a7c15})
	}
	f.Add(endoCase(nine...), uint64(6))
	f.Add(endoCase([3]uint64{1, 1, 0}, [3]uint64{2, 0, 0}, [3]uint64{0, 1, 0}), uint64(0b101))
	f.Add(endoCase([3]uint64{6, 11, 13}, [3]uint64{6, 11, 13}), uint64(0b10))
	f.Add(endoCase(nine...), uint64(0x155))
	f.Fuzz(func(t *testing.T, data []byte, neg uint64) {
		ks, mults := endoParse(data)
		want := G2Infinity()
		var pts []*G2
		var frs []fr.Element
		for i, m := range mults {
			pts = append(pts, g2ScalarMultJac(g2Gen, new(big.Int).Mod(big.NewInt(m), Order)))
			k := new(big.Int).Set(ks[i])
			if neg>>i&1 == 1 {
				k.Sub(Order, k).Mod(k, Order)
			}
			frs = append(frs, *frFromBig(k))
			want.Add(want, g2ScalarMultJac(pts[i], k))
		}
		if got := new(G2).MultiScalarMultFr(pts, frs); !got.Equal(want) {
			t.Fatalf("MultiScalarMultFr diverges on %d points (neg %#x): got %v want %v", len(pts), neg, got, want)
		}
	})
}
