package bn254

import (
	"math/rand"
	"testing"

	"mccls/internal/bn254/fr"
)

// equalWalk is the Jacobian walk EqualBaseMultAddMany batches and the
// oracle it is held to: z = k·G + q by addBaseMult and one mixed addition,
// compared unnormalised.
func equalWalk(z *G1, k *fr.Element, q *G1) bool { return z.equalJac(baseMultAdd(k, q)) }

// equalOne is EqualBaseMultAddMany on one index.
func equalOne(z *G1, k *fr.Element, q *G1) bool {
	return EqualBaseMultAddMany([]*G1{z}, []fr.Element{*k}, []*G1{q}) == 1
}

// manyCase decodes fuzz bytes into one EqualBaseMultAddMany block. The first byte sizes the block, 1 +
// b mod BaseMultAddBlock; then each index reads a scalar kind (0, 1, r−1,
// a single window d·2^(8w), every byte 0xff under a top byte of 0x2f, or 32
// raw bytes, of which zero bytes are skipped windows), a q kind (nil, the
// identity, a random multiple of G, −k·G) and an a kind (k·G + q, its
// negation, its sum with G, the identity). Bytes past the end read as zero.
func manyCase(data []byte) (zs []*G1, ks []fr.Element, qs []*G1) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%BaseMultAddBlock
	zs, ks, qs = make([]*G1, n), make([]fr.Element, n), make([]*G1, n)
	for i := range n {
		var wide [64]byte
		switch next() % 6 {
		case 1:
			ks[i] = fr.One()
		case 2:
			one := fr.One()
			ks[i].Neg(&one)
		case 3:
			d, w := next(), next()%baseTableWindows
			wide[63-w] = d
			ks[i].SetBytesWide(&wide)
		case 4:
			for j := 33; j < 64; j++ {
				wide[j] = 0xff
			}
			wide[32] = 0x2f
			ks[i].SetBytesWide(&wide)
		case 5:
			for j := 32; j < 64; j++ {
				wide[j] = next()
			}
			ks[i].SetBytesWide(&wide)
		}
		switch next() % 4 {
		case 1:
			qs[i] = G1Infinity()
		case 2:
			k := fr.NewElement(uint64(next())<<8 | uint64(next()) + 1)
			qs[i] = new(G1).ScalarBaseMultAddFr(&k, nil)
		case 3:
			var neg fr.Element
			qs[i] = new(G1).ScalarBaseMultAddFr(neg.Neg(&ks[i]), nil)
		}
		sum := new(G1).ScalarBaseMultAddFr(&ks[i], qs[i])
		switch next() % 4 {
		case 0:
			zs[i] = sum
		case 1:
			zs[i] = new(G1).Neg(sum)
		case 2:
			zs[i] = new(G1).Add(sum, G1Generator())
		case 3:
			zs[i] = G1Infinity()
		}
	}
	return zs, ks, qs
}

// checkMany holds one EqualBaseMultAddMany block to equalWalk index by
// index, and to one G1 multiplication counted per index.
func checkMany(t *testing.T, data []byte) {
	t.Helper()
	zs, ks, qs := manyCase(data)
	before := ReadOpCounts().G1ScalarMults
	eq := EqualBaseMultAddMany(zs, ks, qs)
	if d := ReadOpCounts().G1ScalarMults - before; d != uint64(len(ks)) {
		t.Fatalf("%d G1 multiplications counted for %d indices", d, len(ks))
	}
	if eq>>len(ks) != 0 {
		t.Fatalf("bits past %d indices: %#x", len(ks), eq)
	}
	for i := range ks {
		if got, want := eq>>i&1 == 1, equalWalk(zs[i], &ks[i], qs[i]); got != want {
			t.Fatalf("index %d of %d: EqualBaseMultAddMany says %v, the walk %v (k = %v, q = %v, a = %v)",
				i, len(ks), got, want, &ks[i], qs[i], zs[i])
		}
	}
}

// FuzzEqualBaseMultAddManyVsOne differentially fuzzes the shared-inversion
// affine tree against the Jacobian walk it batches; the checked-in seeds
// cover every scalar, q and a kind and blocks of 1, 2, 31 and 32.
func FuzzEqualBaseMultAddManyVsOne(f *testing.F) {
	f.Fuzz(checkMany)
}

// TestEqualBaseMultAddManyVsOne is the fuzzer's seeded twin: every block
// size from 1 to BaseMultAddBlock, with random kinds and raw scalars whose
// bytes are zero one time in four.
func TestEqualBaseMultAddManyVsOne(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for n := 1; n <= BaseMultAddBlock; n++ {
		data := []byte{byte(n - 1)}
		for range n {
			kind := byte(r.Intn(6))
			data = append(data, kind)
			switch kind {
			case 3:
				data = append(data, byte(r.Intn(256)), byte(r.Intn(baseTableWindows)))
			case 5:
				for range 32 {
					b := byte(r.Intn(256))
					if r.Intn(4) == 0 {
						b = 0
					}
					data = append(data, b)
				}
			}
			data = append(data, byte(r.Intn(4)))
			if data[len(data)-1] == 2 {
				data = append(data, byte(r.Intn(256)), byte(r.Intn(256)))
			}
			data = append(data, byte(r.Intn(4)))
		}
		checkMany(t, data)
	}
}
