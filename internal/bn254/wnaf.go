package bn254

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// The signed-digit recoding shared by the GLV, windowed-NAF and cyclotomic
// exponentiation fast paths. Digits are little-endian; timing depends on
// the scalar being recoded (see DESIGN.md §6 "Non-guarantees").

// scalarLimbs splits a non-negative k < 2^256 into little-endian limbs.
// It is the init-time and boundary conversion; per-call code reads limbs
// from fr.Element.
func scalarLimbs(k *big.Int) (out [4]uint64) {
	var buf [32]byte
	k.FillBytes(buf[:])
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return out
}

// wnafWindow is the window width of every G1 and G2 variable-base walk:
// odd digits |d| ≤ 2^(w-1)-1, so the precomputed table holds the 2^(w-2)
// odd multiples P, 3P, …, 15P.
const wnafWindow = 5

// wnafTableSize is the number of precomputed odd multiples per base.
const wnafTableSize = 1 << (wnafWindow - 2)

// wnafMaxDigits bounds the digits of a 256-bit scalar: a recoding can
// carry one position past the top bit.
const wnafMaxDigits = 257

// halfDigits bounds the digits of a GLV half (below 2^130,
// TestGLVSplitBounds) or a ψ-split quarter (below 2^66, TestGLSSplitBounds),
// carry included.
const halfDigits = 131

// wnafDigits appends the width-w NAF of k to dst and returns it: every
// nonzero digit is odd with |d| < 2^(w-1), and any two nonzero digits are
// at least w positions apart (average density 1/(w+1)). Width 2 is the
// plain non-adjacent form, digits in {-1, 0, 1}: ateNAF for the Miller
// loop (a -1 digit adds -Q) and uNAF for the G2 subgroup check. Callers on
// a hot path pass a stack buffer of wnafMaxDigits (halfDigits) capacity.
func wnafDigits(dst []int8, k [4]uint64, w uint) []int8 {
	d := [5]uint64{k[0], k[1], k[2], k[3]} // one spare limb for the top carry
	mask := uint64(1)<<w - 1
	for d[0]|d[1]|d[2]|d[3]|d[4] != 0 {
		var digit int8
		if d[0]&1 == 1 {
			v := d[0] & mask // d mod 2^w
			d[0] &^= mask
			digit = int8(v)
			if v > mask>>1 { // v ≥ 2^(w-1): emit v - 2^w and carry 2^w up
				digit = int8(int64(v) - int64(mask) - 1)
				c := mask + 1
				for i := range d {
					d[i], c = bits.Add64(d[i], c, 0)
				}
			}
		}
		dst = append(dst, digit)
		for i := 0; i < 4; i++ {
			d[i] = d[i]>>1 | d[i+1]<<63
		}
		d[4] >>= 1
	}
	return dst
}

// walkWNAF is the one doubling chain of every G1 and G2 scalar
// multiplication: from the top digit position of the longest row down,
// double() once, then add(r, d) for each nonzero digit d of row r at that
// position. Rows are little-endian signed digits of any lengths. The group
// comes in through the two closures, which do not escape, so callers keep
// their accumulators, tables and digit rows on the stack.
func walkWNAF(rows [][]int8, double func(), add func(r int, d int8)) {
	top := 0
	for _, row := range rows {
		top = max(top, len(row))
	}
	for pos := top - 1; pos >= 0; pos-- {
		double()
		for r, row := range rows {
			if pos < len(row) && row[pos] != 0 {
				add(r, row[pos])
			}
		}
	}
}
