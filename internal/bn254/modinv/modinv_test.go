package modinv

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// The two moduli the stack inverts under: the BN254 base field and its
// scalar field.
var testModuli = []*big.Int{
	mustDecimal("21888242871839275222246405745257275088696311157297823662689037894645226208583"),
	mustDecimal("21888242871839275222246405745257275088548364400416034343698204186575808495617"),
}

func mustDecimal(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bad literal")
	}
	return n
}

func limbsOf(v *big.Int) (out [4]uint64) {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return out
}

func bigOf(l [4]uint64) *big.Int {
	var buf [32]byte
	for i, w := range l {
		binary.BigEndian.PutUint64(buf[24-8*i:], w)
	}
	return new(big.Int).SetBytes(buf[:])
}

// checkInverse compares Inverse with big.Int.ModInverse on x mod m, in
// place and out of place.
func checkInverse(t *testing.T, mod *Modulus, m, x *big.Int) {
	t.Helper()
	x = new(big.Int).Mod(x, m)
	want := new(big.Int).ModInverse(x, m)
	if want == nil {
		want = new(big.Int) // only x = 0: the moduli are prime
	}
	in := limbsOf(x)
	var out [4]uint64
	mod.Inverse(&out, &in)
	if got := bigOf(out); got.Cmp(want) != 0 {
		t.Fatalf("Inverse(%v) mod %v = %v, want %v", x, m, got, want)
	}
	if mod.Inverse(&in, &in); in != out {
		t.Fatalf("aliased Inverse(%v) differs", x)
	}
}

// FuzzInverseVsBigInt drives the divstep inversion against ModInverse for
// both moduli. The seeds sit where the limb arithmetic is most likely to
// slip: 0, 1, 2, m-1, values on both sides of every 62-bit limb boundary,
// and operands with long zero runs.
func FuzzInverseVsBigInt(f *testing.F) {
	seed := func(v *big.Int) {
		var buf [32]byte
		new(big.Int).Mod(v, new(big.Int).Lsh(big.NewInt(1), 256)).FillBytes(buf[:])
		f.Add(buf[:])
	}
	for _, m := range testModuli {
		for _, d := range []int64{0, 1, 2, 3} {
			seed(big.NewInt(d))
			seed(new(big.Int).Sub(m, big.NewInt(d)))
		}
	}
	for k := uint(62); k < 256; k += 62 {
		p := new(big.Int).Lsh(big.NewInt(1), k)
		seed(p)
		seed(new(big.Int).Sub(p, big.NewInt(1)))
		seed(new(big.Int).Add(p, big.NewInt(1)))
		seed(new(big.Int).Lsh(big.NewInt(1<<61+1), k-62)) // one set bit per neighbouring limb
	}
	seed(new(big.Int).Lsh(big.NewInt(1), 253))
	seed(new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 253), big.NewInt(1)))
	seed(new(big.Int).Lsh(big.NewInt(0x7fff), 120))
	mods := []*Modulus{NewModulus(limbsOf(testModuli[0])), NewModulus(limbsOf(testModuli[1]))}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 32 {
			b = b[:32]
		}
		x := new(big.Int).SetBytes(b)
		for i, m := range testModuli {
			checkInverse(t, mods[i], m, x)
		}
	})
}

// TestInverseRandom is the always-on slice of the fuzzer: 5 000 random
// inputs per modulus, plus a small odd modulus where every residue is
// enumerated (the 590-step bound must hold for short moduli too).
func TestInverseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range testModuli {
		mod := NewModulus(limbsOf(m))
		for i := 0; i < 5000; i++ {
			checkInverse(t, mod, m, new(big.Int).Rand(rng, m))
		}
	}
	small := big.NewInt(65537)
	mod := NewModulus(limbsOf(small))
	for x := int64(0); x < 65537; x += 7 {
		checkInverse(t, mod, small, big.NewInt(x))
	}
}

func TestNewModulusRejectsEven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even modulus accepted")
		}
	}()
	NewModulus([4]uint64{2})
}

func BenchmarkInverse(b *testing.B) {
	mod := NewModulus(limbsOf(testModuli[0]))
	x := limbsOf(new(big.Int).Rsh(testModuli[1], 1))
	for i := 0; i < b.N; i++ {
		mod.Inverse(&x, &x)
	}
}
