package bn254

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestJacobianMatchesAffineG1 cross-checks the Jacobian scalar
// multiplication against the affine reference ladder, property-based over
// random scalars.
func TestJacobianMatchesAffineG1(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	base := new(G1).ScalarMult(G1Generator(), big.NewInt(7))
	prop := func(lo, hi uint64) bool {
		k := new(big.Int).SetUint64(hi)
		k.Lsh(k, 64)
		k.Or(k, new(big.Int).SetUint64(lo))
		jac := g1ScalarMultJac(base, k)
		aff := g1ScalarMultAffine(base, k)
		return jac.Equal(aff) && jac.IsOnCurve()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6, Rand: r}); err != nil {
		t.Fatal(err)
	}
	// Edge scalars.
	for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(Order, big.NewInt(1)), new(big.Int).Set(Order)} {
		jac := g1ScalarMultJac(base, new(big.Int).Mod(k, Order))
		aff := g1ScalarMultAffine(base, new(big.Int).Mod(k, Order))
		if !jac.Equal(aff) {
			t.Fatalf("mismatch at scalar %v", k)
		}
	}
}

// TestJacobianMatchesAffineG2 does the same for the twist group, including
// the unreduced scalars used in cofactor clearing.
func TestJacobianMatchesAffineG2(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	base := G2Generator()
	for i := 0; i < 4; i++ {
		k := new(big.Int).Rand(r, Order)
		jac := g2ScalarMultJac(base, k)
		aff := g2ScalarMultAffine(base, k)
		if !jac.Equal(aff) {
			t.Fatalf("G2 mismatch at iteration %d", i)
		}
		if !jac.IsOnCurve() {
			t.Fatal("Jacobian result off curve")
		}
	}
	// Cofactor-sized (larger than r) scalar.
	jac := g2ScalarMultJac(base, g2Cofactor)
	aff := g2ScalarMultAffine(base, g2Cofactor)
	if !jac.Equal(aff) {
		t.Fatal("unreduced scalar mismatch")
	}
}

// TestJacobianDegenerateCases exercises infinity and two-torsion paths.
func TestJacobianDegenerateCases(t *testing.T) {
	if !g1ScalarMultJac(G1Infinity(), big.NewInt(5)).IsInfinity() {
		t.Fatal("k·∞ != ∞ in G1")
	}
	if !g2ScalarMultJac(G2Infinity(), big.NewInt(5)).IsInfinity() {
		t.Fatal("k·∞ != ∞ in G2")
	}
	// Jacobian add of P and -P must hit the cancellation branch.
	p := new(G1).ScalarBaseMult(big.NewInt(3))
	var j g1Jac
	j.fromAffine(p)
	j.addMixed(new(G1).Neg(p))
	if !j.isInfinity() {
		t.Fatal("P + (-P) != ∞ via mixed addition")
	}
	q := g2BaseMult(big.NewInt(3))
	var j2 g2Jac
	j2.fromAffine(q)
	j2.addMixed(new(G2).Neg(q))
	if !j2.isInfinity() {
		t.Fatal("Q + (-Q) != ∞ via mixed addition")
	}
	// Doubling path through addMixed (P + P).
	var dbl g1Jac
	dbl.fromAffine(p)
	dbl.addMixed(p)
	if !dbl.affine(new(G1)).Equal(new(G1).Double(p)) {
		t.Fatal("P + P via mixed addition != 2P")
	}
}

// BenchmarkG1ScalarMultJacobian measures the production ladder. With
// Montgomery limbs a field inversion costs hundreds of multiplications, so
// the inversion-free Jacobian ladder is the fast path (the affine ladder is
// kept only as a test reference).
func BenchmarkG1ScalarMultJacobian(b *testing.B) {
	k := new(big.Int).Rand(rand.New(rand.NewSource(2)), Order)
	g := G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g1ScalarMultJac(g, k)
	}
}

func BenchmarkG2ScalarMultJacobian(b *testing.B) {
	k := new(big.Int).Rand(rand.New(rand.NewSource(3)), Order)
	g := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2ScalarMultJac(g, k)
	}
}
