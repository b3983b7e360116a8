package bn254

// Reference math/big implementation of the base-field tower, retained after
// the Montgomery refactor as the differential-testing oracle. This file is
// test-only (never linked into the library), mirrors the pre-refactor
// semantics exactly — canonical residues in [0, p), nil for missing
// inverses/roots — and is what FuzzFpVsBigInt / FuzzFp2VsBigInt and the
// Fp12 differential test compare the fixed-width implementation against.

import (
	"math/big"
	"math/rand"
	"testing"
)

func fpAddRef(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), P)
}

func fpSubRef(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Sub(a, b), P)
}

func fpMulRef(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), P)
}

func fpNegRef(a *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Neg(a), P)
}

// fpInvRef returns a⁻¹ mod p, or nil when a ≡ 0 — the nil that the old
// production code never checked for and the fp.Element API now surfaces as
// an explicit ok.
func fpInvRef(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, P)
}

// fp2Ref is the big.Int reference of an Fp2 element c0 + c1·i.
type fp2Ref struct {
	c0, c1 *big.Int
}

func newFp2Ref(c0, c1 *big.Int) *fp2Ref {
	return &fp2Ref{c0: new(big.Int).Mod(c0, P), c1: new(big.Int).Mod(c1, P)}
}

// refOfFp2 converts a Montgomery Fp2 into the reference representation.
func refOfFp2(z *Fp2) *fp2Ref { return &fp2Ref{c0: z.C0.BigInt(), c1: z.C1.BigInt()} }

func (z *fp2Ref) toFp2() *Fp2 { return fp2FromBig(z.c0, z.c1) }

func (z *fp2Ref) equalFp2(x *Fp2) bool {
	return z.c0.Cmp(x.C0.BigInt()) == 0 && z.c1.Cmp(x.C1.BigInt()) == 0
}

func (z *fp2Ref) add(x, y *fp2Ref) *fp2Ref {
	return &fp2Ref{c0: fpAddRef(x.c0, y.c0), c1: fpAddRef(x.c1, y.c1)}
}

func (z *fp2Ref) sub(x, y *fp2Ref) *fp2Ref {
	return &fp2Ref{c0: fpSubRef(x.c0, y.c0), c1: fpSubRef(x.c1, y.c1)}
}

func (z *fp2Ref) mul(x, y *fp2Ref) *fp2Ref {
	ac := fpMulRef(x.c0, y.c0)
	bd := fpMulRef(x.c1, y.c1)
	ad := fpMulRef(x.c0, y.c1)
	bc := fpMulRef(x.c1, y.c0)
	return &fp2Ref{c0: fpSubRef(ac, bd), c1: fpAddRef(ad, bc)}
}

// inv returns x⁻¹ or nil for zero.
func (z *fp2Ref) inv(x *fp2Ref) *fp2Ref {
	norm := fpAddRef(fpMulRef(x.c0, x.c0), fpMulRef(x.c1, x.c1))
	ni := fpInvRef(norm)
	if ni == nil {
		return nil
	}
	return &fp2Ref{c0: fpMulRef(x.c0, ni), c1: fpNegRef(fpMulRef(x.c1, ni))}
}

// randFp2 draws a uniform Fp2 element (shared by several test files).
func randFp2(r *rand.Rand) *Fp2 {
	return fp2FromBig(new(big.Int).Rand(r, P), new(big.Int).Rand(r, P))
}

// randFp12 draws a uniform dense Fp12 element (shared by several test files).
func randFp12(r *rand.Rand) *Fp12 {
	z := &Fp12{}
	for k := range z.C {
		z.C[k] = *randFp2(r)
	}
	return z
}

// fp12MulRef multiplies two Fp12 elements by schoolbook polynomial
// convolution over fp2Ref followed by reduction modulo w⁶ = xi, entirely in
// math/big — the oracle for Fp12.Mul that shares no field code with it.
func fp12MulRef(a, b *Fp12) *Fp12 {
	xiRef := newFp2Ref(big.NewInt(9), big.NewInt(1))
	var ar, br [6]*fp2Ref
	for k := 0; k < 6; k++ {
		ar[k] = refOfFp2(&a.C[k])
		br[k] = refOfFp2(&b.C[k])
	}
	var conv [11]*fp2Ref
	for k := range conv {
		conv[k] = newFp2Ref(big.NewInt(0), big.NewInt(0))
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			conv[i+j] = new(fp2Ref).add(conv[i+j], new(fp2Ref).mul(ar[i], br[j]))
		}
	}
	z := &Fp12{}
	for k := 0; k < 5; k++ {
		conv[k] = new(fp2Ref).add(conv[k], new(fp2Ref).mul(conv[k+6], xiRef))
	}
	for k := 0; k < 6; k++ {
		z.C[k] = *conv[k].toFp2()
	}
	return z
}

// TestFp12MulVsRef drives the production Fp12 multiplication — on dense,
// line-shaped sparse, one and zero operands — against the big.Int
// convolution oracle.
func TestFp12MulVsRef(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	randFull := func() *Fp12 { return randFp12(r) }
	// Line-evaluation-shaped sparse element: only w⁰ (Fp), w¹, w³ nonzero.
	randLine := func() *Fp12 {
		z := &Fp12{}
		z.C[0] = *fp2FromBig(new(big.Int).Rand(r, P), big.NewInt(0))
		z.C[1] = *randFp2(r)
		z.C[3] = *randFp2(r)
		return z
	}
	cases := [][2]*Fp12{
		{randFull(), randFull()},
		{randFull(), randLine()},
		{randLine(), randLine()},
		{Fp12One(), randFull()},
		{&Fp12{}, randFull()},
	}
	for i, c := range cases {
		got := new(Fp12).Mul(c[0], c[1])
		want := fp12MulRef(c[0], c[1])
		if !got.Equal(want) {
			t.Fatalf("case %d: Fp12.Mul disagrees with big.Int reference", i)
		}
	}
}
