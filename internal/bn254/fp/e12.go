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
	// Output k's j-th product is xe[k − j + 2]·y[j], ξ·x[i] where k − j wraps.
	xe := [5]E2{{}, {}, x[0], x[1], x[2]}
	xe[0].MulByXi(&x[1])
	xe[1].MulByXi(&x[2])
	var c [3][2]Wide
	for k := range c {
		for j := range y {
			MulAcc(&c[k][0], &c[k][1], &xe[k-j+2], &y[j])
		}
	}
	for k := range c {
		c[k][0].Reduce(&z[k].C0)
		c[k][1].Reduce(&z[k].C1)
	}
}

// MulE12 sets z = x·y in Fp12 by Karatsuba over the Fp6 view, x = a + b·w and
// y = c + d·w (a, c the even and b, d the odd coefficients, v = w²): x·y =
// (ac + v·bd) + ((a + b)(c + d) − ac − bd)·w, three MulE6. z may alias x or y.
func MulE12(z, x, y *[6]E2) { mulE12(z, x, y) }

func mulE12Composed(z, x, y *[6]E2) {
	var a, b, c, d, s, t [3]E2
	for k := range a {
		a[k], b[k], c[k], d[k] = x[2*k], x[2*k+1], y[2*k], y[2*k+1]
		s[k].Add(&a[k], &b[k])
		t[k].Add(&c[k], &d[k])
	}
	MulE6(&a, &a, &c)
	MulE6(&b, &b, &d)
	MulE6(&s, &s, &t)
	vb := [3]E2{{}, b[0], b[1]} // v·bd
	vb[0].MulByXi(&b[2])
	for k := range a {
		z[2*k].Add(&a[k], &vb[k])
		z[2*k+1].Sub(&s[k], &a[k])
		z[2*k+1].Sub(&z[2*k+1], &b[k])
	}
}

// MulBySparse sets z = z·(c0 + c1·w + c3·w³), a Miller line: each output
// coefficient accumulates its three Fp2 products unreduced (MulAcc) and
// reduces once, the ξ of terms wrapping past w⁵ applied to c1 and c3 first.
// A nil c0 stands for 1, a replayed normalised line: its products are
// skipped and z's own coefficient added after the reduction, 12 products.
func MulBySparse(z *[6]E2, c0, c1, c3 *E2) { mulBySparse(z, c0, c1, c3) }

func mulBySparseComposed(z *[6]E2, c0, c1, c3 *E2) {
	var xi [2]E2 // ξ·c1, ξ·c3
	xi[0].MulByXi(c1)
	xi[1].MulByXi(c3)
	var res [6]E2
	for k := range res {
		var acc [2]Wide
		if c0 != nil {
			MulAcc(&acc[0], &acc[1], &z[k], c0)
		}
		for i, c := range [2]*E2{c1, c3} {
			j := 2*i + 1 // c·w^j lands on w^k from z[k − j], or wraps
			if k < j {
				c = &xi[i]
			}
			MulAcc(&acc[0], &acc[1], &z[(k-j+6)%6], c)
		}
		acc[0].Reduce(&res[k].C0)
		acc[1].Reduce(&res[k].C1)
		if c0 == nil {
			res[k].Add(&res[k], &z[k])
		}
	}
	*z = res
}
