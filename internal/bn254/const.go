// Package bn254 implements the BN254 (alt_bn128) pairing-friendly elliptic
// curve from scratch on the standard library: prime-field towers Fp, Fp2 and
// Fp12 = Fp2[w]/(w^6 - xi), the groups G1 ⊂ E(Fp), G2 ⊂ E'(Fp2) and
// GT ⊂ Fp12*, hashing to G1/G2/Zr, and the optimal-ate pairing
// e: G1 × G2 → GT.
//
// Base-field arithmetic is fixed-width Montgomery form (internal/bn254/fp);
// scalars and every derived constant (twist coefficient, Frobenius
// coefficients, final-exponentiation hard part) remain math/big and are
// computed from the curve parameter u rather than transcribed, keeping the
// derivation auditable.
package bn254

import (
	"math/big"

	"mccls/internal/bn254/fp"
)

// mustBig parses a base-10 integer literal and panics on malformed input.
// It is used only for package-level constants, where a parse failure is a
// programming error that must abort startup.
func mustBig(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn254: invalid integer literal " + s)
	}
	return n
}

var (
	// u is the BN parameter. p, Order and the ate loop count are all
	// polynomials in u.
	u = mustBig("4965661367192848881")

	// P is the base field modulus p = 36u^4 + 36u^3 + 24u^2 + 6u + 1.
	P = mustBig("21888242871839275222246405745257275088696311157297823662689037894645226208583")

	// Order is the prime group order r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
	// of G1, G2 and GT.
	Order = mustBig("21888242871839275222246405745257275088548364400416034343698204186575808495617")

	// ateLoopCount is 6u + 2, the Miller loop length of the optimal-ate
	// pairing on BN curves.
	ateLoopCount = new(big.Int).Add(new(big.Int).Mul(big.NewInt(6), u), big.NewInt(2))

	// curveB is the G1 curve coefficient: E: y^2 = x^3 + 3.
	curveB = fp.NewElement(3)

	// g2Cofactor is #E'(Fp2)/r = 2p - r for BN curves. Hash-to-G2 output
	// is multiplied by it to land in the order-r subgroup.
	g2Cofactor = new(big.Int).Sub(new(big.Int).Lsh(P, 1), Order)

	// xiVal is the sextic non-residue 9 + i used to build Fp12 over Fp2.
	xiVal = Fp2{C0: fp.NewElement(9), C1: fp.NewElement(1)}

	// xiToPMinus1Over6 is xi^((p-1)/6) with xi = 9 + i; the w-coefficient
	// Frobenius constant of Fp12 = Fp2[w]/(w^6 - xi).
	xiToPMinus1Over6 = computeFrobGamma(1)
	// xiToPMinus1Over3 = xi^((p-1)/3): used by the twist Frobenius on x.
	xiToPMinus1Over3 = computeFrobGamma(2)
	// xiToPMinus1Over2 = xi^((p-1)/2): used by the twist Frobenius on y.
	xiToPMinus1Over2 = computeFrobGamma(3)

	// twistB is the G2 curve coefficient b' = 3/xi of the D-type sextic
	// twist E': y^2 = x^3 + b' over Fp2.
	twistB = computeTwistB()
)

// computeFrobGamma returns xi^(j*(p-1)/6) in Fp2, the j-th Frobenius
// coefficient for the w-power basis of Fp12.
func computeFrobGamma(j int) *Fp2 {
	exp := new(big.Int).Sub(P, big.NewInt(1))
	exp.Mul(exp, big.NewInt(int64(j)))
	exp.Div(exp, big.NewInt(6))
	return new(Fp2).Exp(xi(), exp)
}

// xi returns the sextic non-residue 9 + i.
func xi() *Fp2 { return &xiVal }

// computeTwistB returns 3/xi, the coefficient of the sextic twist.
func computeTwistB() *Fp2 {
	inv := new(Fp2).Inverse(xi())
	three := &Fp2{C0: fp.NewElement(3)}
	return new(Fp2).Mul(three, inv)
}
