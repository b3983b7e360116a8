// Package bn254 implements the BN254 (alt_bn128) pairing-friendly elliptic
// curve from scratch on the standard library: prime-field towers Fp, Fp2 and
// Fp12 = Fp2[w]/(w^6 - xi), the groups G1 ⊂ E(Fp), G2 ⊂ E'(Fp2) and
// GT ⊂ Fp12*, hashing to G1/G2/Zr, and the optimal-ate pairing
// e: G1 × G2 → GT.
//
// Base-field and scalar-field arithmetic are fixed-width Montgomery form
// (internal/bn254/fp and internal/bn254/fr, sharing the constant-time
// inversion of internal/bn254/modinv); *big.Int survives on the exported
// scalar signatures as a one-conversion adapter and in init-time constant
// derivation, and every derived constant (twist coefficient,
// Frobenius coefficients, the signed-digit recodings of 6u+2 and u that
// drive the Miller loop and the final exponentiation) is computed at init
// from the curve parameter u rather than transcribed, keeping the derivation
// auditable.
package bn254

import (
	"math/big"

	"mccls/internal/bn254/fp"
	"mccls/internal/bn254/fr"
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
	Order = fr.Modulus()

	// ateLoopCount is 6u + 2, the Miller loop length of the optimal-ate
	// pairing on BN curves; the loop walks its non-adjacent form ateNAF
	// (66 digits, 22 nonzero against 37 set bits).
	ateLoopCount = new(big.Int).Add(new(big.Int).Mul(big.NewInt(6), u), big.NewInt(2))
	ateNAF       = wnafDigits(nil, scalarLimbs(ateLoopCount), 2)

	// uNAF (the non-adjacent form of u) drives the G2 subgroup check and the
	// cofactor clearing, uWNAF (width cycWindow) the three exponentiations by
	// u in the final exponentiation.
	uNAF  = wnafDigits(nil, scalarLimbs(u), 2)
	uWNAF = wnafDigits(nil, scalarLimbs(u), cycWindow)

	// hashToG2Scale is c′ = (2p - r)·e(p)⁻¹ mod r for the polynomial
	// e(x) = u + 3u·x + u·x² + x³ of clearCofactor: [2p - r]q = c′·e(ψ)q.
	hashToG2Scale = func() (c fr.Element) {
		e := new(big.Int).Add(P, u) // Horner: ((p + u)·p + 3u)·p + u
		e.Mul(e, P).Add(e, new(big.Int).Mul(big.NewInt(3), u))
		e.Mul(e, P).Add(e, u).Mod(e, Order)
		if e.ModInverse(e, Order) == nil {
			panic("bn254: e(p) is not invertible mod r")
		}
		return *c.SetBigInt(e.Mul(e, new(big.Int).Sub(new(big.Int).Lsh(P, 1), Order)))
	}()

	// pMinus1Over6 is the fixed exponent of the Frobenius constants, as
	// plain limbs for Fp2.expFixed: p ≡ 1 (mod 6).
	pMinus1Over6 = scalarLimbs(new(big.Int).Div(new(big.Int).Sub(P, big.NewInt(1)), big.NewInt(6)))

	// curveB is the G1 curve coefficient: E: y^2 = x^3 + 3.
	curveB = fp.NewElement(3)

	// xiVal is the sextic non-residue 9 + i used to build Fp12 over Fp2.
	xiVal = Fp2{C0: fp.NewElement(9), C1: fp.NewElement(1)}

	// frobGamma[n-1][k-1] = xi^(k(p^n-1)/6) for n = 1..3, k = 1..5: what the
	// w^k coefficient of Fp12 = Fp2[w]/(w^6 - xi) picks up under x ↦ x^(p^n).
	// The n = 2 row lies in Fp (the norms of the n = 1 row).
	frobGamma = computeFrobGamma()
	// xiToPMinus1Over3 = xi^((p-1)/3): used by the twist Frobenius on x.
	xiToPMinus1Over3 = &frobGamma[0][1]
	// xiToPMinus1Over2 = xi^((p-1)/2): used by the twist Frobenius on y.
	xiToPMinus1Over2 = &frobGamma[0][2]

	// twistB is the G2 curve coefficient b' = 3/xi of the D-type sextic
	// twist E': y^2 = x^3 + b' over Fp2.
	twistB = computeTwistB()
)

// computeFrobGamma derives the Frobenius constant table from the one
// exponentiation γ = xi^((p-1)/6). Frobenius on Fp2 is conjugation, so
// xi^((p²-1)/6) = γ^(p+1) = γ·γ̄ and xi^((p³-1)/6) = γ^(p²+p+1) = γ²·γ̄; the
// rest of each row is successive products.
func computeFrobGamma() (tab [3][5]Fp2) {
	var conj Fp2
	tab[0][0].expFixed(xi(), &pMinus1Over6)
	tab[1][0].Mul(&tab[0][0], conj.Conjugate(&tab[0][0]))
	tab[2][0].Mul(&tab[1][0], &tab[0][0])
	for n := range tab {
		for k := 1; k < len(tab[n]); k++ {
			tab[n][k].Mul(&tab[n][k-1], &tab[n][0])
		}
	}
	return tab
}

// xi returns the sextic non-residue 9 + i.
func xi() *Fp2 { return &xiVal }

// computeTwistB returns 3/xi, the coefficient of the sextic twist.
func computeTwistB() *Fp2 {
	inv := new(Fp2).Inverse(xi())
	three := &Fp2{C0: fp.NewElement(3)}
	return new(Fp2).Mul(three, inv)
}
