package bn254

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// deterministic test RNG so failures reproduce.
func testRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func randScalar(r *rand.Rand) *big.Int {
	k := new(big.Int).Rand(r, Order)
	if k.Sign() == 0 {
		k.SetInt64(1)
	}
	return k
}

// g2BaseMult is k·G2 for a *big.Int scalar.
func g2BaseMult(k *big.Int) *G2 { return new(G2).ScalarMult(G2Generator(), k) }

func TestCurveParameters(t *testing.T) {
	// p and r are the BN polynomials evaluated at u.
	u2 := new(big.Int).Mul(u, u)
	u3 := new(big.Int).Mul(u2, u)
	u4 := new(big.Int).Mul(u3, u)
	poly := func(c4, c3, c2, c1, c0 int64) *big.Int {
		s := new(big.Int).Mul(big.NewInt(c4), u4)
		s.Add(s, new(big.Int).Mul(big.NewInt(c3), u3))
		s.Add(s, new(big.Int).Mul(big.NewInt(c2), u2))
		s.Add(s, new(big.Int).Mul(big.NewInt(c1), u))
		s.Add(s, big.NewInt(c0))
		return s
	}
	if got := poly(36, 36, 24, 6, 1); got.Cmp(P) != 0 {
		t.Fatalf("p != 36u^4+36u^3+24u^2+6u+1: %v", got)
	}
	if got := poly(36, 36, 18, 6, 1); got.Cmp(Order) != 0 {
		t.Fatalf("r != 36u^4+36u^3+18u^2+6u+1: %v", got)
	}
	if !P.ProbablyPrime(32) || !Order.ProbablyPrime(32) {
		t.Fatal("p or r not prime")
	}
	// p ≡ 3 (mod 4) is assumed by both square-root routines.
	if new(big.Int).Mod(P, big.NewInt(4)).Int64() != 3 {
		t.Fatal("p != 3 mod 4")
	}
	// The final-exponentiation hard part must divide exactly.
	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	num := new(big.Int).Sub(p4, p2)
	num.Add(num, big.NewInt(1))
	q, m := new(big.Int).DivMod(num, Order, new(big.Int))
	if m.Sign() != 0 {
		t.Fatal("(p^4-p^2+1) not divisible by r")
	}
	if q.Cmp(finalExpHard) != 0 {
		t.Fatal("finalExpHard mismatch")
	}
}

func TestFp2Arithmetic(t *testing.T) {
	r := testRand()
	for i := 0; i < 50; i++ {
		a, b, c := randFp2(r), randFp2(r), randFp2(r)
		// Commutativity and associativity of multiplication.
		ab := new(Fp2).Mul(a, b)
		ba := new(Fp2).Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("Fp2 mul not commutative")
		}
		abc1 := new(Fp2).Mul(ab, c)
		abc2 := new(Fp2).Mul(a, new(Fp2).Mul(b, c))
		if !abc1.Equal(abc2) {
			t.Fatal("Fp2 mul not associative")
		}
		// Distributivity.
		l := new(Fp2).Mul(a, new(Fp2).Add(b, c))
		rr := new(Fp2).Add(new(Fp2).Mul(a, b), new(Fp2).Mul(a, c))
		if !l.Equal(rr) {
			t.Fatal("Fp2 not distributive")
		}
		// Inverse.
		if !a.IsZero() {
			if got := new(Fp2).Mul(a, new(Fp2).Inverse(a)); !got.IsOne() {
				t.Fatal("Fp2 inverse broken")
			}
		}
		// i^2 = -1.
		i := fp2FromBig(big.NewInt(0), big.NewInt(1))
		if got := new(Fp2).Square(i); !got.Equal(new(Fp2).Neg(Fp2One())) {
			t.Fatal("i^2 != -1")
		}
	}
}

func TestFp2Sqrt(t *testing.T) {
	r := testRand()
	found := 0
	for i := 0; i < 40; i++ {
		a := randFp2(r)
		sq := new(Fp2).Square(a)
		root := new(Fp2).Sqrt(sq)
		if root == nil {
			t.Fatal("square reported as non-residue")
		}
		if !new(Fp2).Square(root).Equal(sq) {
			t.Fatal("sqrt returned wrong root")
		}
		// Roughly half of random elements should be non-residues.
		if new(Fp2).Sqrt(a) != nil {
			found++
		}
	}
	if found == 0 || found == 40 {
		t.Fatalf("suspicious residue distribution: %d/40", found)
	}
}

func TestFp12FieldAxioms(t *testing.T) {
	r := testRand()
	for i := 0; i < 10; i++ {
		a, b, c := randFp12(r), randFp12(r), randFp12(r)
		ab := new(Fp12).Mul(a, b)
		if !ab.Equal(new(Fp12).Mul(b, a)) {
			t.Fatal("Fp12 mul not commutative")
		}
		if !new(Fp12).Mul(ab, c).Equal(new(Fp12).Mul(a, new(Fp12).Mul(b, c))) {
			t.Fatal("Fp12 mul not associative")
		}
		if got := new(Fp12).Mul(a, new(Fp12).Inverse(a)); !got.IsOne() {
			t.Fatal("Fp12 inverse broken")
		}
	}
}

func TestFp12Frobenius(t *testing.T) {
	r := testRand()
	a := &Fp12{}
	for k := 0; k < 6; k++ {
		a.C[k] = *randFp2(r)
	}
	// Frobenius must equal exponentiation by p.
	frob := new(Fp12).Frobenius(a)
	pow := new(Fp12).Exp(a, P)
	if !frob.Equal(pow) {
		t.Fatal("Frobenius != x^p")
	}
	// Twelve applications are the identity.
	twelve := new(Fp12).FrobeniusN(a, 12)
	if !twelve.Equal(a) {
		t.Fatal("Frobenius^12 != identity")
	}
}

func TestG1GroupLaw(t *testing.T) {
	r := testRand()
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator off curve")
	}
	if !new(G1).ScalarMult(g, Order).IsInfinity() {
		t.Fatal("r·G != infinity")
	}
	for i := 0; i < 10; i++ {
		a, b := randScalar(r), randScalar(r)
		pa := new(G1).ScalarMult(g, a)
		pb := new(G1).ScalarMult(g, b)
		sum := new(G1).Add(pa, pb)
		ab := new(big.Int).Mod(new(big.Int).Add(a, b), Order)
		if !sum.Equal(new(G1).ScalarMult(g, ab)) {
			t.Fatal("aG + bG != (a+b)G")
		}
		if !sum.IsOnCurve() {
			t.Fatal("sum off curve")
		}
		// P + (-P) = 0, P + 0 = P.
		if !new(G1).Add(pa, new(G1).Neg(pa)).IsInfinity() {
			t.Fatal("P + (-P) != 0")
		}
		if !new(G1).Add(pa, G1Infinity()).Equal(pa) {
			t.Fatal("P + 0 != P")
		}
	}
}

func TestG2GroupLaw(t *testing.T) {
	r := testRand()
	g := G2Generator()
	if !g.IsOnCurve() {
		t.Fatal("G2 generator off twist curve")
	}
	if !g.IsInSubgroup() {
		t.Fatal("G2 generator not in order-r subgroup")
	}
	for i := 0; i < 5; i++ {
		a, b := randScalar(r), randScalar(r)
		pa := new(G2).ScalarMult(g, a)
		pb := new(G2).ScalarMult(g, b)
		sum := new(G2).Add(pa, pb)
		ab := new(big.Int).Mod(new(big.Int).Add(a, b), Order)
		if !sum.Equal(new(G2).ScalarMult(g, ab)) {
			t.Fatal("aQ + bQ != (a+b)Q")
		}
		if !new(G2).Add(pa, new(G2).Neg(pa)).IsInfinity() {
			t.Fatal("Q + (-Q) != 0")
		}
	}
}

func TestPairingBilinearity(t *testing.T) {
	r := testRand()
	p := G1Generator()
	q := G2Generator()
	base := Pair(p, q)
	if base.IsOne() {
		t.Fatal("e(P, Q) degenerate")
	}
	// Order-r: e(P,Q)^r = 1.
	if !new(GT).Exp(base, frFromBig(Order)).IsOne() {
		t.Fatal("pairing value not of order dividing r")
	}
	for i := 0; i < 3; i++ {
		a, b := randScalar(r), randScalar(r)
		left := Pair(new(G1).ScalarMult(p, a), new(G2).ScalarMult(q, b))
		ab := new(big.Int).Mod(new(big.Int).Mul(a, b), Order)
		right := new(GT).Exp(base, frFromBig(ab))
		if !left.Equal(right) {
			t.Fatalf("bilinearity failed: e(aP, bQ) != e(P, Q)^ab (a=%v b=%v)", a, b)
		}
	}
	// e(P+P', Q) = e(P,Q)e(P',Q).
	a, b := randScalar(r), randScalar(r)
	pa := new(G1).ScalarMult(p, a)
	pb := new(G1).ScalarMult(p, b)
	lhs := Pair(new(G1).Add(pa, pb), q)
	rhs := new(GT).Mul(Pair(pa, q), Pair(pb, q))
	if !lhs.Equal(rhs) {
		t.Fatal("additivity in first slot failed")
	}
}

func TestPairingIdentitySlots(t *testing.T) {
	if !Pair(G1Infinity(), G2Generator()).IsOne() {
		t.Fatal("e(0, Q) != 1")
	}
	if !Pair(G1Generator(), G2Infinity()).IsOne() {
		t.Fatal("e(P, 0) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	r := testRand()
	a := randScalar(r)
	p := new(G1).ScalarBaseMult(a)
	q := G2Generator()
	negP := new(G1).Neg(p)
	// e(P, Q)·e(-P, Q) = 1.
	if !PairingCheck([]*G1{p, negP}, []*G2{q, q}) {
		t.Fatal("PairingCheck rejected a valid relation")
	}
	if PairingCheck([]*G1{p, p}, []*G2{q, q}) {
		t.Fatal("PairingCheck accepted an invalid relation")
	}
	if PairingCheck([]*G1{p}, []*G2{q, q}) {
		t.Fatal("PairingCheck accepted mismatched lengths")
	}
	if !PairingCheck(nil, nil) {
		t.Fatal("empty product should be 1")
	}
}

func TestHashToG2(t *testing.T) {
	h1 := HashToG2("test", []byte("id:alice"))
	h2 := HashToG2("test", []byte("id:alice"))
	h3 := HashToG2("test", []byte("id:bob"))
	if !h1.Equal(h2) {
		t.Fatal("hash not deterministic")
	}
	if h1.Equal(h3) {
		t.Fatal("hash collision")
	}
	if !h1.IsInSubgroup() {
		t.Fatal("hash output not in order-r subgroup")
	}
}

func TestHashToScalar(t *testing.T) {
	s1 := HashToFr("d", []byte("m"))
	s2 := HashToFr("d", []byte("m"))
	s3 := HashToFr("d", []byte("m2"))
	if s1 != s2 || s1 == s3 {
		t.Fatal("scalar hash determinism/collision failure")
	}
	if v := s1.BigInt(); v.Sign() <= 0 || v.Cmp(Order) >= 0 {
		t.Fatal("scalar out of range")
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	r := testRand()
	for i := 0; i < 10; i++ {
		p := new(G1).ScalarBaseMult(randScalar(r))
		var q G1
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("round trip mismatch")
		}
	}
	var inf G1
	if err := inf.Unmarshal(G1Infinity().Marshal()); err != nil || !inf.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
	// Off-curve data must be rejected.
	bad := make([]byte, 64)
	bad[31] = 5
	bad[63] = 7
	if err := new(G1).Unmarshal(bad); err == nil {
		t.Fatal("accepted off-curve point")
	}
	if err := new(G1).Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short encoding")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	r := testRand()
	for i := 0; i < 3; i++ {
		p := g2BaseMult(randScalar(r))
		var q G2
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("round trip mismatch")
		}
	}
	var inf G2
	if err := inf.Unmarshal(G2Infinity().Marshal()); err != nil || !inf.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
	if err := new(G2).Unmarshal(make([]byte, 12)); err == nil {
		t.Fatal("accepted short encoding")
	}
}

// TestG2RejectsWrongSubgroup builds a twist point outside the order-r
// subgroup and checks that Unmarshal refuses it and UnmarshalOnCurve
// accepts it.
func TestG2RejectsWrongSubgroup(t *testing.T) {
	// Find a curve point by try-and-increment WITHOUT cofactor clearing.
	var pt *G2
	for ctr := uint32(0); ; ctr++ {
		b0 := hashBlock("sub", "", []byte("x"), ctr)
		x := fp2FromBig(new(big.Int).SetBytes(b0[:]), big.NewInt(1))
		rhs := new(Fp2).Mul(new(Fp2).Square(x), x)
		rhs.Add(rhs, twistB)
		y := new(Fp2).Sqrt(rhs)
		if y == nil {
			continue
		}
		pt = &G2{X: *x, Y: *y}
		if !pt.IsInSubgroup() {
			break
		}
	}
	if err := new(G2).Unmarshal(pt.Marshal()); err == nil {
		t.Fatal("accepted out-of-subgroup G2 point")
	}
	if q := new(G2); q.UnmarshalOnCurve(pt.Marshal()) != nil || !q.Equal(pt) {
		t.Fatal("curve-only decode refused a point of the twist")
	}
}

// Property-based check of the scalar-multiplication homomorphism on G1.
func TestG1ScalarMultProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		sa, sb := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
		g := G1Generator()
		left := new(G1).ScalarMult(new(G1).ScalarMult(g, sa), sb)
		right := new(G1).ScalarMult(g, new(big.Int).Mul(sa, sb))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestGTMarshalDistinct(t *testing.T) {
	a := Pair(G1Generator(), G2Generator())
	b := new(GT).Exp(a, frFromBig(big.NewInt(2)))
	if bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("distinct GT elements marshal identically")
	}
	if !bytes.Equal(a.Marshal(), a.Marshal()) {
		t.Fatal("marshal not deterministic")
	}
}

func TestRandomScalarRange(t *testing.T) {
	for i := 0; i < 20; i++ {
		k, err := RandomScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() <= 0 || k.Cmp(Order) >= 0 {
			t.Fatal("scalar out of range")
		}
	}
}

// TestFinalExponentiationFastMatchesNaive cross-checks the
// Devegili–Scott–Dahab hard-part chain against the plain exponentiation by
// (p^4-p^2+1)/r on random Miller values.
func TestFinalExponentiationFastMatchesNaive(t *testing.T) {
	r := testRand()
	for i := 0; i < 3; i++ {
		p := new(G1).ScalarBaseMult(randScalar(r))
		q := g2BaseMult(randScalar(r))
		f := millerLoop(p, q)
		fast := finalExponentiation(new(Fp12), f)
		naive := finalExponentiationNaive(f)
		if !fast.Equal(naive) {
			t.Fatalf("optimized final exponentiation diverges (iteration %d)", i)
		}
	}
}
