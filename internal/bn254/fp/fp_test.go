package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// The package's own init() already asserts the Montgomery constants; the
// tests here exercise the arithmetic against math/big on random values and
// the boundary cases that stress carry chains.

func randBig(r *rand.Rand) *big.Int { return new(big.Int).Rand(r, qBig) }

// edgeValues are the inputs most likely to expose carry/borrow bugs.
func edgeValues() []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(qBig, big.NewInt(1)),
		new(big.Int).Rsh(qBig, 1),
		new(big.Int).SetUint64(^uint64(0)),
		new(big.Int).Lsh(big.NewInt(1), 64),
		new(big.Int).Lsh(big.NewInt(1), 192),
	}
}

func TestRoundTripBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := edgeValues()
	for i := 0; i < 200; i++ {
		vals = append(vals, randBig(r))
	}
	for _, v := range vals {
		var e Element
		e.SetBigInt(v)
		if got := e.BigInt(); got.Cmp(v) != 0 {
			t.Fatalf("round trip %v -> %v", v, got)
		}
		b := e.Bytes()
		if got := new(big.Int).SetBytes(b[:]); got.Cmp(v) != 0 {
			t.Fatalf("Bytes round trip %v -> %v", v, got)
		}
	}
}

// TestSetBytesCanonical pins the decode-boundary setter against math/big:
// it accepts exactly the 32-byte encodings of values below q, agrees with
// SetBigInt on those, leaves the receiver alone otherwise, and allocates
// nothing.
func TestSetBytesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	max256 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	vals := append(edgeValues(), qBig, new(big.Int).Add(qBig, big.NewInt(1)), max256,
		new(big.Int).Add(qBig, new(big.Int).Lsh(big.NewInt(1), 64)))
	for i := 0; i < 200; i++ {
		vals = append(vals, new(big.Int).Rand(r, max256))
	}
	for _, v := range vals {
		var buf [32]byte
		v.FillBytes(buf[:])
		e := NewElement(5)
		ok := e.SetBytesCanonical(buf[:])
		if want := v.Cmp(qBig) < 0; ok != want {
			t.Fatalf("SetBytesCanonical(%v) = %v, want %v", v, ok, want)
		}
		if !ok {
			if five := NewElement(5); !e.Equal(&five) {
				t.Fatalf("rejected input %v clobbered the receiver", v)
			}
			continue
		}
		var want Element
		want.SetBigInt(v)
		if !e.Equal(&want) || e.Bytes() != buf {
			t.Fatalf("SetBytesCanonical(%v) decoded to %v", v, e.String())
		}
	}
	var e Element
	for _, n := range []int{0, 31, 33, 64} {
		if e.SetBytesCanonical(make([]byte, n)) {
			t.Fatalf("accepted a %d-byte encoding", n)
		}
	}
	one := e.SetOne().Bytes()
	if a := testing.AllocsPerRun(100, func() { e.SetBytesCanonical(one[:]) }); a != 0 {
		t.Fatalf("SetBytesCanonical allocates %v times", a)
	}
}

func TestArithmeticMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pairs := [][2]*big.Int{}
	edges := edgeValues()
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]*big.Int{a, b})
		}
	}
	for i := 0; i < 500; i++ {
		pairs = append(pairs, [2]*big.Int{randBig(r), randBig(r)})
	}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		var ea, eb, ez Element
		ea.SetBigInt(a)
		eb.SetBigInt(b)

		want := new(big.Int).Mod(new(big.Int).Add(a, b), qBig)
		if got := ez.Add(&ea, &eb).BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Add(%v, %v) = %v, want %v", a, b, got, want)
		}
		want.Mod(new(big.Int).Sub(a, b), qBig)
		if got := ez.Sub(&ea, &eb).BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%v, %v) = %v, want %v", a, b, got, want)
		}
		want.Mod(new(big.Int).Mul(a, b), qBig)
		if got := ez.Mul(&ea, &eb).BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%v, %v) = %v, want %v", a, b, got, want)
		}
		want.Mod(new(big.Int).Neg(a), qBig)
		if got := ez.Neg(&ea).BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Neg(%v) = %v, want %v", a, got, want)
		}
		want.Mod(new(big.Int).Add(a, a), qBig)
		if got := ez.Double(&ea).BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Double(%v) = %v, want %v", a, got, want)
		}
		want.Mod(new(big.Int).Mul(a, a), qBig)
		if got := ez.Square(&ea).BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Square(%v) = %v, want %v", a, got, want)
		}
	}
}

func TestInverse(t *testing.T) {
	var z Element
	if ok := z.Inverse(&Element{}); ok {
		t.Fatal("Inverse(0) reported ok")
	}
	if !z.IsZero() {
		t.Fatal("Inverse(0) did not set zero")
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		a := randBig(r)
		if a.Sign() == 0 {
			continue
		}
		var ea, inv, prod Element
		ea.SetBigInt(a)
		if ok := inv.Inverse(&ea); !ok {
			t.Fatalf("Inverse(%v) failed", a)
		}
		if !prod.Mul(&ea, &inv).IsOne() {
			t.Fatalf("a·a⁻¹ ≠ 1 for %v", a)
		}
		want := new(big.Int).ModInverse(a, qBig)
		if got := inv.BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Inverse(%v) = %v, want %v", a, got, want)
		}
	}
}

// Exp sets z = x^e by square-and-multiply over a big.Int exponent: the
// oracle for expFixed (no shipped code exponentiates by a big.Int).
func (z *Element) Exp(x *Element, e *big.Int) *Element {
	acc, base := one, *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if e.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	*z = acc
	return z
}

func TestExp(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		a, e := randBig(r), randBig(r)
		var ea, ez Element
		ea.SetBigInt(a)
		ez.Exp(&ea, e)
		want := new(big.Int).Exp(a, e, qBig)
		if got := ez.BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%v, %v) = %v, want %v", a, e, got, want)
		}
	}
}

func TestSettersAndPredicates(t *testing.T) {
	o := One()
	if !o.IsOne() {
		t.Fatal("One() is not one")
	}
	e := NewElement(7)
	if got := e.BigInt().Int64(); got != 7 {
		t.Fatalf("NewElement(7) = %d", got)
	}
	var z Element
	if !z.IsZero() {
		t.Fatal("zero value is not zero")
	}
	z.SetOne()
	if !z.IsOne() || z.IsZero() {
		t.Fatal("SetOne broken")
	}
	z.SetZero()
	if !z.IsZero() {
		t.Fatal("SetZero broken")
	}
}

func BenchmarkMul(b *testing.B) {
	var x, y Element
	x.SetBigInt(mustDecimal("1234567891011121314151617181920212223242526272829303132333435363738"))
	y.SetBigInt(mustDecimal("9876543210987654321098765432109876543210987654321098765432109876543"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	x := NewElement(12345)
	var z Element
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
}
