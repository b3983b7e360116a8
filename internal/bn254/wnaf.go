package bn254

import "math/big"

// Scalar recodings shared by the GLV, windowed-NAF and cyclotomic
// exponentiation fast paths. Both recodings are little-endian digit slices;
// timing depends only on the scalar being recoded, which is public at every
// call site (verification inputs, cofactors, the curve parameter u).

// nafDigits returns the non-adjacent form of a non-negative e: digits in
// {-1, 0, 1}, no two adjacent nonzero. Average nonzero density is 1/3
// versus 1/2 for binary, so ladders with cheap negation save a third of
// their additions. It runs at init only: ateNAF for the Miller loop (a -1
// digit adds -Q) and uNAF for the G2 subgroup check.
func nafDigits(e *big.Int) []int8 {
	d := new(big.Int).Set(e)
	out := make([]int8, 0, e.BitLen()+1)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			// r = d mod 4 ∈ {1, 3} → digit 1 or -1.
			if d.Bit(1) == 0 {
				out = append(out, 1)
				d.Sub(d, big.NewInt(1))
			} else {
				out = append(out, -1)
				d.Add(d, big.NewInt(1))
			}
		} else {
			out = append(out, 0)
		}
		d.Rsh(d, 1)
	}
	return out
}

// wnafWindow is the window width shared by the G1 GLV ladder and the G2
// variable-base ladder: odd digits |d| ≤ 2^(w-1)-1, so the precomputed
// table holds the 2^(w-2) odd multiples P, 3P, …, 15P.
const wnafWindow = 5

// wnafTableSize is the number of precomputed odd multiples per base.
const wnafTableSize = 1 << (wnafWindow - 2)

// wnafDigits returns the width-w NAF of a non-negative k: every nonzero
// digit is odd with |d| < 2^(w-1), and any two nonzero digits are at least
// w positions apart (average density 1/(w+1)).
func wnafDigits(k *big.Int, w uint) []int8 {
	d := new(big.Int).Set(k)
	out := make([]int8, 0, k.BitLen()+1)
	mod := int64(1) << w
	half := mod >> 1
	r := new(big.Int)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			v := r.And(d, big.NewInt(mod-1)).Int64() // d mod 2^w
			if v >= half {
				v -= mod
			}
			out = append(out, int8(v))
			d.Sub(d, big.NewInt(v))
		} else {
			out = append(out, 0)
		}
		d.Rsh(d, 1)
	}
	return out
}
