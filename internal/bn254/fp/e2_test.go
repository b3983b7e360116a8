package fp

import (
	"math/rand"
	"testing"
)

// The E2 kernels against the per-coefficient composition they replace.
// On amd64 the dispatched kernels are assembly and every comparison is a
// cross-implementation check; under purego the dispatch is the composition
// and the tests hold it to itself, as the Element kernel tests do.

// e2Edges are coefficient values at the edges of the kernels' carry and
// reduction logic: 0, 1 (raw and Montgomery), q−1, q−2, the halves
// (q−1)/2 and (q+1)/2, whose loose sum is exactly q, and R² mod q; q−1
// twice makes the largest loose sum, 2q − 2.
func e2Edges() []Element {
	qm1 := Element{q0 - 1, q1, q2, q3}
	half := Element(qHalf)
	return []Element{{}, {1}, one, qm1, {q0 - 2, q1, q2, q3}, half, {half[0] + 1, half[1], half[2], half[3]}, rSquare}
}

// e2FromBytes reads two pairs (x, y) from up to 128 bytes, each coefficient
// reduced into [0, q); missing bytes read as zero.
func e2FromBytes(b []byte) (x, y E2) {
	var buf [128]byte
	copy(buf[:], b)
	cs := [4]*Element{&x.C0, &x.C1, &y.C0, &y.C1}
	for i, c := range cs {
		*c = limbsFromBytes(buf[32*i : 32*i+32])
		for range 5 { // 2^256 < 6q
			c.reduce()
		}
	}
	return x, y
}

// checkE2Kernels holds every E2 kernel to its composition on (x, y), into
// a fresh receiver and into receivers aliasing x and y; the accumulate
// starts from a nonzero pair of accumulators and also runs on x·x.
func checkE2Kernels(t *testing.T, x, y E2) {
	t.Helper()
	binary := []struct {
		name           string
		kernel, oracle func(z, x, y *E2)
	}{
		{"add", addE2, addE2Composed},
		{"sub", subE2, subE2Composed},
		{"double", func(z, x, _ *E2) { doubleE2(z, x) }, func(z, x, _ *E2) { doubleE2Composed(z, x) }},
		{"mulByXi", func(z, x, _ *E2) { mulByXiE2(z, x) }, func(z, x, _ *E2) { mulByXiComposed(z, x) }},
		{"mul", mulE2, mulE2Composed},
		{"square", func(z, x, _ *E2) { squareE2(z, x) }, func(z, x, _ *E2) { squareE2Composed(z, x) }},
	}
	for _, op := range binary {
		var want E2
		op.oracle(&want, &x, &y)
		got := E2{C0: one, C1: one}
		op.kernel(&got, &x, &y)
		zx, zy := x, y
		op.kernel(&zx, &zx, &y)
		op.kernel(&zy, &x, &zy)
		if got != want || zx != want || zy != want {
			t.Fatalf("%s(%v, %v): kernel %v, z=x %v, z=y %v; composition %v", op.name, x, y, got, zx, zy, want)
		}
		// x·x with z = x = y, and the second pair on its own for the
		// unary kernels.
		op.oracle(&want, &x, &x)
		zx = x
		op.kernel(&zx, &zx, &zx)
		var wy, gy E2
		op.oracle(&wy, &y, &y)
		op.kernel(&gy, &y, &y)
		if zx != want || gy != wy {
			t.Fatalf("%s on (%v, %v): kernel %v, %v; composition %v, %v", op.name, x, y, zx, gy, want, wy)
		}
	}
	var w0, w1, g0, g1 Wide
	mulAccComposed(&w0, &w1, &y, &y)
	g0, g1 = w0, w1
	mulAccComposed(&w0, &w1, &x, &y)
	mulAccE2(&g0, &g1, &x, &y)
	mulAccComposed(&w0, &w1, &x, &x)
	mulAccE2(&g0, &g1, &x, &x)
	if g0 != w0 || g1 != w1 {
		t.Fatalf("mulAcc(%v, %v): kernel (%v, %v), composition (%v, %v)", x, y, g0, g1, w0, w1)
	}
}

// FuzzFp2KernelsVsComposed fuzzes the E2 kernels against the composition
// on two pairs read from the input (e2FromBytes).
func FuzzFp2KernelsVsComposed(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 128))
	f.Fuzz(func(t *testing.T, b []byte) {
		x, y := e2FromBytes(b)
		checkE2Kernels(t, x, y)
	})
}

// TestFp2KernelsVsComposed runs the kernels over every pair of edge pairs
// and over seeded random pairs, on either build.
func TestFp2KernelsVsComposed(t *testing.T) {
	edges := e2Edges()
	var pairs []E2
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, E2{a, b})
		}
	}
	for _, x := range pairs {
		for _, y := range pairs {
			checkE2Kernels(t, x, y)
		}
	}
	r := rand.New(rand.NewSource(51))
	var buf [128]byte
	for range 2000 {
		r.Read(buf[:])
		x, y := e2FromBytes(buf[:])
		checkE2Kernels(t, x, y)
	}
}
