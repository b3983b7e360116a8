package fp

// CyclotomicSquare sets z = x² for x = Σ x[k]·w^k in Fp12 = Fp2[w]/(w⁶ − ξ)
// in the cyclotomic subgroup, by Granger–Scott (eprint 2009/565 §3.1): with
// Fp4 = Fp2[v]/(v² − ξ), v = w³, x = A + B·w + C·w² for A = x[0] + x[3]·v,
// B = x[1] + x[4]·v, C = x[2] + x[5]·v, and
//
//	x² = (3A² − 2Ā) + (3v·C² + 2B̄)·w + (3B² − 2C̄)·w²
//
// where Ā negates A's v part. The formulas hold only in the subgroup but are
// defined everywhere, and kernel and composition agree on every input. z may
// alias x.
func CyclotomicSquare(z, x *[6]E2) { cycSquare(z, x) }

// fp4SquareComposed returns (re + im·v)² = (re² + ξ·im²) + 2re·im·v with
// three Fp2 squarings: 2re·im = (re + im)² − re² − im².
func fp4SquareComposed(re, im *E2) (outRe, outIm E2) {
	var r2, i2 E2
	r2.Square(re)
	i2.Square(im)
	outIm.Add(re, im)
	outIm.Square(&outIm)
	outIm.Sub(&outIm, &r2)
	outIm.Sub(&outIm, &i2)
	i2.MulByXi(&i2)
	outRe.Add(&r2, &i2)
	return outRe, outIm
}

func cycSquareComposed(z, x *[6]E2) {
	aRe, aIm := fp4SquareComposed(&x[0], &x[3])
	bRe, bIm := fp4SquareComposed(&x[1], &x[4])
	cRe, cIm := fp4SquareComposed(&x[2], &x[5])
	// Output k reads only x[k] past this point, so z may alias x.
	threeMinusTwo(&z[0], &aRe, &x[0]) // 3A² − 2Ā
	threePlusTwo(&z[3], &aIm, &x[3])
	cIm.MulByXi(&cIm)                // v·(re + im·v) = ξ·im + re·v
	threePlusTwo(&z[1], &cIm, &x[1]) // 3v·C² + 2B̄
	threeMinusTwo(&z[4], &cRe, &x[4])
	threeMinusTwo(&z[2], &bRe, &x[2]) // 3B² − 2C̄
	threePlusTwo(&z[5], &bIm, &x[5])
}

// threeMinusTwo sets z = 3s − 2x = 2(s − x) + s.
func threeMinusTwo(z, s, x *E2) {
	z.Sub(s, x)
	z.Double(z)
	z.Add(z, s)
}

// threePlusTwo sets z = 3s + 2x = 2(s + x) + s.
func threePlusTwo(z, s, x *E2) {
	z.Add(s, x)
	z.Double(z)
	z.Add(z, s)
}

// MulE6 sets z = x·y in Fp6 = Fp2[v]/(v³ − ξ) for x = x[0] + x[1]·v +
// x[2]·v². Each output coefficient accumulates its three Fp2 products
// unreduced (MulAcc: ≤ 7q² of the Wide contract at its peak) and reduces
// once: 9 wide Karatsuba products and 6 reductions, the ξ that wrapped terms
// pick up applied to x's canonical coefficients first. z may alias x or y.
func MulE6(z, x, y *[3]E2) { mulE6(z, x, y) }

func mulE6Composed(z, x, y *[3]E2) {
	var x1, x2 E2
	x1.MulByXi(&x[1])
	x2.MulByXi(&x[2])
	var c [3][2]Wide
	MulAcc(&c[0][0], &c[0][1], &x[0], &y[0])
	MulAcc(&c[0][0], &c[0][1], &x1, &y[2])
	MulAcc(&c[0][0], &c[0][1], &x2, &y[1])
	MulAcc(&c[1][0], &c[1][1], &x[0], &y[1])
	MulAcc(&c[1][0], &c[1][1], &x[1], &y[0])
	MulAcc(&c[1][0], &c[1][1], &x2, &y[2])
	MulAcc(&c[2][0], &c[2][1], &x[0], &y[2])
	MulAcc(&c[2][0], &c[2][1], &x[1], &y[1])
	MulAcc(&c[2][0], &c[2][1], &x[2], &y[0])
	for k := range c {
		c[k][0].Reduce(&z[k].C0)
		c[k][1].Reduce(&z[k].C1)
	}
}
