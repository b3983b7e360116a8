package fp

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// The cyclotomic squaring and Fp6 product kernels against the compositions
// they replace. The squaring's formulas are defined on every Fp12, not only
// on the cyclotomic subgroup, so kernel and composition must agree bit for
// bit on arbitrary inputs.

// limbBytes is the big-endian encoding limbsFromBytes reads back.
func limbBytes(e Element) []byte {
	var b []byte
	for i := 3; i >= 0; i-- {
		b = binary.BigEndian.AppendUint64(b, e[i])
	}
	return b
}

// e12FromBytes reads six pairs from up to 384 bytes, each coefficient
// reduced into [0, q); missing bytes read as zero.
func e12FromBytes(b []byte) (x [6]E2) {
	var buf [384]byte
	copy(buf[:], b)
	for k := range x {
		x[k].C0, x[k].C1 = limbsFromBytes(buf[64*k:]), limbsFromBytes(buf[64*k+32:])
		for range 5 { // 2^256 < 6q
			x[k].C0.reduce()
			x[k].C1.reduce()
		}
	}
	return x
}

func e12Bytes(x *[6]E2) []byte {
	var b []byte
	for k := range x {
		b = append(append(b, limbBytes(x[k].C0)...), limbBytes(x[k].C1)...)
	}
	return b
}

// checkCycSquare holds the kernel to the composition on x, into a fresh
// receiver and into x itself.
func checkCycSquare(t *testing.T, x [6]E2) {
	t.Helper()
	var want, got [6]E2
	cycSquareComposed(&want, &x)
	cycSquare(&got, &x)
	zx := x
	cycSquare(&zx, &zx)
	if got != want || zx != want {
		t.Fatalf("cycSquare(%v): kernel %v, z=x %v; composition %v", x, got, zx, want)
	}
}

// cycEdges are the sweep's inputs: zero, Montgomery one and all q−1; every
// coefficient alone at 1, one and q−1; and every pair at ξ's estimate
// boundaries (q−1, 0), which makes 9a + q − b its largest, and (0, q−1),
// its smallest, alone and in every pair at once.
func cycEdges() [][6]E2 {
	qm1 := Element{q0 - 1, q1, q2, q3}
	fill := func(c0, c1 Element) (x [6]E2) {
		for k := range x {
			x[k] = E2{c0, c1}
		}
		return x
	}
	edges := [][6]E2{{}, {{C0: one}}, fill(qm1, qm1), fill(qm1, Element{}), fill(Element{}, qm1)}
	for k := range 6 {
		for _, v := range []Element{{1}, one, qm1} {
			var a, b [6]E2
			a[k].C0, b[k].C1 = v, v
			edges = append(edges, a, b)
		}
		var a, b [6]E2
		a[k], b[k] = E2{C0: qm1}, E2{C1: qm1}
		edges = append(edges, a, b)
	}
	return edges
}

// FuzzCycSquareKernelVsComposed fuzzes the kernel against the composition
// on six pairs read from the input (e12FromBytes); the edge sweep seeds it.
func FuzzCycSquareKernelVsComposed(f *testing.F) {
	for _, x := range cycEdges() {
		f.Add(e12Bytes(&x))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkCycSquare(t, e12FromBytes(b))
	})
}

// TestCycSquareKernelVsComposed runs the edge sweep and seeded random
// inputs, on either build.
func TestCycSquareKernelVsComposed(t *testing.T) {
	for _, x := range cycEdges() {
		checkCycSquare(t, x)
	}
	r := rand.New(rand.NewSource(56))
	var buf [384]byte
	for range 2000 {
		r.Read(buf[:])
		checkCycSquare(t, e12FromBytes(buf[:]))
	}
}

// TestFp4SquareMatchesMul checks the three-squaring Fp4 square against the
// definition (re + im·v)² = (re² + ξ·im²) + 2·re·im·v by plain products,
// with zero, one and all-(q−1) coefficients among the inputs.
func TestFp4SquareMatchesMul(t *testing.T) {
	qm1 := Element{q0 - 1, q1, q2, q3}
	ins := [][2]E2{{}, {{C0: one}, {}}, {{}, {C0: one}}, {{qm1, qm1}, {qm1, qm1}}, {{qm1, qm1}, {C0: one}}}
	r := rand.New(rand.NewSource(4))
	var buf [128]byte
	for range 16 {
		r.Read(buf[:])
		re, im := e2FromBytes(buf[:])
		ins = append(ins, [2]E2{re, im})
	}
	for i, in := range ins {
		re, im := in[0], in[1]
		var wantRe, wantIm, t0 E2
		wantRe.Mul(&re, &re)
		t0.Mul(&im, &im)
		t0.MulByXi(&t0)
		wantRe.Add(&wantRe, &t0)
		wantIm.Mul(&re, &im)
		wantIm.Double(&wantIm)
		if gotRe, gotIm := fp4SquareComposed(&re, &im); gotRe != wantRe || gotIm != wantIm {
			t.Fatalf("fp4SquareComposed diverges from the product form (case %d)", i)
		}
	}
}

// checkMulE6 holds the Fp6 product kernel to its composition on (x, y),
// into a fresh receiver and into receivers aliasing x and y.
func checkMulE6(t *testing.T, x, y [3]E2) {
	t.Helper()
	var want, got [3]E2
	mulE6Composed(&want, &x, &y)
	mulE6(&got, &x, &y)
	zx, zy := x, y
	mulE6(&zx, &zx, &y)
	mulE6(&zy, &x, &zy)
	if got != want || zx != want || zy != want {
		t.Fatalf("mulE6(%v, %v): kernel %v, z=x %v, z=y %v; composition %v", x, y, got, zx, zy, want)
	}
}

// FuzzMulE6KernelVsComposed fuzzes the Fp6 product kernel against the
// composition on two triples read from the input (the six pairs of
// e12FromBytes); the edge sweep seeds it.
func FuzzMulE6KernelVsComposed(f *testing.F) {
	for _, x := range cycEdges() {
		f.Add(e12Bytes(&x))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v := e12FromBytes(b)
		checkMulE6(t, [3]E2(v[:3]), [3]E2(v[3:]))
	})
}

// TestMulE6KernelVsComposed runs the edge sweep, every edge against every
// other, and seeded random inputs, on either build.
func TestMulE6KernelVsComposed(t *testing.T) {
	edges := cycEdges()
	for _, a := range edges {
		for _, b := range edges {
			checkMulE6(t, [3]E2(a[:3]), [3]E2(b[3:]))
		}
	}
	r := rand.New(rand.NewSource(6))
	var buf [384]byte
	for range 2000 {
		r.Read(buf[:])
		v := e12FromBytes(buf[:])
		checkMulE6(t, [3]E2(v[:3]), [3]E2(v[3:]))
	}
}

// lineShaped keeps x's w⁰, w¹ and w³ pairs, the shape of a Miller line.
func lineShaped(x [6]E2) [6]E2 {
	return [6]E2{x[0], x[1], {}, x[3], {}, {}}
}

// checkMulE12 holds the Fp12 product kernel to its composition on (x, y),
// into a fresh receiver, into receivers aliasing x and y, and squaring.
func checkMulE12(t *testing.T, x, y [6]E2) {
	t.Helper()
	var want, got, sq, wantSq [6]E2
	mulE12Composed(&want, &x, &y)
	mulE12(&got, &x, &y)
	zx, zy := x, y
	mulE12(&zx, &zx, &y)
	mulE12(&zy, &x, &zy)
	mulE12Composed(&wantSq, &x, &x)
	sq = x
	mulE12(&sq, &sq, &sq)
	if got != want || zx != want || zy != want || sq != wantSq {
		t.Fatalf("mulE12(%v, %v): kernel %v, z=x %v, z=y %v; composition %v", x, y, got, zx, zy, want)
	}
}

// FuzzMulE12KernelVsComposed fuzzes the Fp12 product kernel against the
// composition on two elements read from the input (e12FromBytes of its
// first 384 bytes and of the rest), seeded with the edge sweep, each edge
// times itself and times its line-shaped part.
func FuzzMulE12KernelVsComposed(f *testing.F) {
	for _, x := range cycEdges() {
		l := lineShaped(x)
		f.Add(append(e12Bytes(&x), e12Bytes(&x)...))
		f.Add(append(e12Bytes(&x), e12Bytes(&l)...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkMulE12(t, e12FromBytes(b), e12FromBytes(b[min(len(b), 384):]))
	})
}

// TestMulE12KernelVsComposed runs every edge against every edge and its
// line-shaped part, and seeded random inputs, on either build.
func TestMulE12KernelVsComposed(t *testing.T) {
	edges := cycEdges()
	for _, a := range edges {
		for _, b := range edges {
			checkMulE12(t, a, b)
			checkMulE12(t, a, lineShaped(b))
		}
	}
	r := rand.New(rand.NewSource(12))
	var buf [768]byte
	for range 1000 {
		r.Read(buf[:])
		checkMulE12(t, e12FromBytes(buf[:384]), e12FromBytes(buf[384:]))
	}
}

// checkMulBySparse holds the sparse fold kernel to its composition for z
// and the line (l[0], l[1], l[2]) = (c0, c1, c3), in both shapes: the plain
// line and the replayed one, whose nil c0 stands for 1.
func checkMulBySparse(t *testing.T, z [6]E2, l [3]E2) {
	t.Helper()
	for _, c0 := range []*E2{&l[0], nil} {
		want, got := z, z
		mulBySparseComposed(&want, c0, &l[1], &l[2])
		mulBySparse(&got, c0, &l[1], &l[2])
		if got != want {
			t.Fatalf("mulBySparse(%v, c0 %v, %v, %v): kernel %v; composition %v", z, c0, l[1], l[2], got, want)
		}
	}
}

// FuzzMulBySparseKernelVsComposed fuzzes the sparse fold kernel against the
// composition, both shapes, on z read from the input's first 384 bytes and
// the line from the next 192, seeded with the edge sweep as z beside every
// edge's w⁰, w¹ and w³ pairs as the line and, for a line-shaped z, its own.
func FuzzMulBySparseKernelVsComposed(f *testing.F) {
	for _, x := range cycEdges() {
		l := lineShaped(x)
		f.Add(append(e12Bytes(&x), e12Bytes(&[6]E2{x[0], x[1], x[3]})[:192]...))
		f.Add(append(e12Bytes(&l), e12Bytes(&[6]E2{x[0], x[1], x[3]})[:192]...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l := e12FromBytes(b[min(len(b), 384):])
		checkMulBySparse(t, e12FromBytes(b), [3]E2(l[:3]))
	})
}

// TestMulBySparseKernelVsComposed runs every edge as z against every edge's
// line pairs, and seeded random inputs, on either build.
func TestMulBySparseKernelVsComposed(t *testing.T) {
	edges := cycEdges()
	for _, z := range edges {
		for _, x := range edges {
			checkMulBySparse(t, z, [3]E2{x[0], x[1], x[3]})
		}
	}
	r := rand.New(rand.NewSource(60))
	var buf [576]byte
	for range 1000 {
		r.Read(buf[:])
		l := e12FromBytes(buf[384:])
		checkMulBySparse(t, e12FromBytes(buf[:384]), [3]E2(l[:3]))
	}
}
