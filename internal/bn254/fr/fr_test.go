package fr

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

func TestConstants(t *testing.T) {
	if got := new(big.Int).Mul(new(big.Int).SetUint64(rInvNeg), rBig); got.Add(got, big.NewInt(1)).Uint64() != 0 {
		t.Fatal("rInvNeg·r ≢ -1 mod 2^64")
	}
	if o := One(); o.BigInt().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("One() = %v", &o)
	}
	if e := NewElement(7); e.BigInt().Cmp(big.NewInt(7)) != 0 {
		t.Fatalf("NewElement(7) = %v", &e)
	}
	if Modulus().Cmp(rBig) != 0 {
		t.Fatal("Modulus() != r")
	}
}

// elem reduces 32 arbitrary bytes into an element and its big.Int twin.
func elem(b []byte) (Element, *big.Int) {
	v := new(big.Int).SetBytes(b)
	v.Mod(v, rBig)
	var e Element
	e.SetBigInt(v)
	return e, v
}

func wantEq(t *testing.T, op string, got *Element, want *big.Int) {
	t.Helper()
	want = new(big.Int).Mod(want, rBig)
	if got.BigInt().Cmp(want) != 0 {
		t.Fatalf("%s = %v, want %v", op, got, want)
	}
	for i := 3; i >= 0; i-- { // canonical: limbs, as an integer, below r
		if got[i] != r[i] {
			if got[i] > r[i] {
				t.Fatalf("%s: representative not below r", op)
			}
			break
		}
	}
}

// FuzzFrVsBigInt checks every operation against math/big on two operands
// cut from the input, including aliased receivers.
func FuzzFrVsBigInt(f *testing.F) {
	rm1 := new(big.Int).Sub(rBig, big.NewInt(1)).Bytes()
	f.Add(make([]byte, 64))
	f.Add(append(append([]byte{}, rm1...), rm1...))
	f.Add(append(rBig.Bytes(), bytes.Repeat([]byte{0xff}, 32)...))
	f.Add(append(bytes.Repeat([]byte{0xff}, 32), 1))
	f.Add(append(make([]byte, 31), 1, 2))
	f.Fuzz(func(t *testing.T, in []byte) {
		var wide [64]byte
		copy(wide[:], in)
		x, xb := elem(wide[:32])
		y, yb := elem(wide[32:])
		var z Element
		wantEq(t, "add", z.Add(&x, &y), new(big.Int).Add(xb, yb))
		wantEq(t, "sub", z.Sub(&x, &y), new(big.Int).Sub(xb, yb))
		wantEq(t, "neg", z.Neg(&x), new(big.Int).Neg(xb))
		wantEq(t, "mul", z.Mul(&x, &y), new(big.Int).Mul(xb, yb))
		z = x
		wantEq(t, "add aliased", z.Add(&z, &z), new(big.Int).Lsh(xb, 1))
		z = x
		wantEq(t, "sub aliased", z.Sub(&y, &z), new(big.Int).Sub(yb, xb))
		z = x
		wantEq(t, "mul aliased", z.Mul(&z, &z), new(big.Int).Mul(xb, xb))

		inv := new(big.Int).ModInverse(xb, rBig)
		if ok := z.Inverse(&x); ok != (inv != nil) {
			t.Fatalf("Inverse(%v) ok = %v", xb, ok)
		} else if ok {
			wantEq(t, "inverse", &z, inv)
		} else if !z.IsZero() {
			t.Fatal("Inverse(0) did not zero the receiver")
		}

		wantEq(t, "wide", z.SetBytesWide(&wide), new(big.Int).SetBytes(wide[:]))

		enc := x.Bytes()
		if want := xb.FillBytes(make([]byte, 32)); !bytes.Equal(enc[:], want) {
			t.Fatalf("Bytes() = %x, want %x", enc, want)
		}
		if !z.SetBytesCanonical(enc[:]) || z != x {
			t.Fatal("Bytes/SetBytesCanonical round trip failed")
		}
		if l := x.Limbs(); new(big.Int).SetBytes(enc[:]).Cmp(limbsToBig(l)) != 0 {
			t.Fatal("Limbs() disagrees with Bytes()")
		}
		// The raw 32 bytes decode canonically exactly when they are below r.
		raw := new(big.Int).SetBytes(wide[:32])
		if got := z.SetBytesCanonical(wide[:32]); got != (raw.Cmp(rBig) < 0) {
			t.Fatalf("SetBytesCanonical(%x) = %v", wide[:32], got)
		}
	})
}

func limbsToBig(l [4]uint64) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l[i]))
	}
	return v
}

func TestSetBytesCanonicalRejects(t *testing.T) {
	var z Element
	for _, b := range [][]byte{nil, make([]byte, 31), make([]byte, 33), rBig.Bytes(), bytes.Repeat([]byte{0xff}, 32)} {
		if z.SetBytesCanonical(b) {
			t.Fatalf("accepted %x", b)
		}
	}
}

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// randIntNonzero is what bn254.RandomScalar was before fr: rand.Int in a
// retry-on-zero loop.
func randIntNonzero(rng io.Reader) (*big.Int, error) {
	for {
		k, err := rand.Int(rng, rBig)
		if err != nil || k.Sign() != 0 {
			return k, err
		}
	}
}

// TestFrRandomMatchesRandInt pins Random to the reader consumption of
// rand.Int(rng, r): the same stream yields the same scalars and leaves
// the same number of bytes unread, so no seeded key, nonce or transcript
// pin moves.
func TestFrRandomMatchesRandInt(t *testing.T) {
	// A crafted stream: one draw ≥ r after masking (rejected), one zero
	// draw (redrawn), then an accepted value with its top two bits set,
	// then seeded noise.
	reject := bytes.Repeat([]byte{0xff}, 32)
	zero := make([]byte, 32)
	masked := append([]byte{0xc1}, bytes.Repeat([]byte{0x5a}, 31)...)
	noise := make([]byte, 32*64)
	mrand.New(mrand.NewSource(7)).Read(noise)
	stream := bytes.Join([][]byte{reject, zero, masked, noise}, nil)

	a := &countingReader{r: bytes.NewReader(stream)}
	b := &countingReader{r: bytes.NewReader(stream)}
	for i := 0; i < 40; i++ {
		want, errWant := randIntNonzero(a)
		got, errGot := Random(b)
		if (errWant != nil) != (errGot != nil) {
			t.Fatalf("draw %d: errors differ: %v vs %v", i, errWant, errGot)
		}
		if errWant != nil {
			break
		}
		if got.BigInt().Cmp(want) != 0 {
			t.Fatalf("draw %d: Random = %v, rand.Int = %v", i, &got, want)
		}
		if a.n != b.n {
			t.Fatalf("draw %d: consumed %d bytes, rand.Int consumed %d", i, b.n, a.n)
		}
		if i == 0 && a.n != 96 {
			t.Fatalf("crafted prefix: first draw consumed %d bytes, want 96", a.n)
		}
	}
	if _, err := Random(bytes.NewReader(make([]byte, 5))); err == nil {
		t.Fatal("short reader accepted")
	}
	if z, err := Random(nil); err != nil || z.IsZero() {
		t.Fatalf("Random(nil) = %v, %v", &z, err)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := NewElement(0xdeadbeef), NewElement(0x12345)
	x.Inverse(&x)
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	x := NewElement(0xdeadbeef)
	for i := 0; i < b.N; i++ {
		x.Inverse(&x)
	}
}
