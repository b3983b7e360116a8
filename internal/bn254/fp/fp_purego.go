//go:build !amd64 || purego

package fp

// SupportAdx reports whether the ADX/BMI2 assembly kernels are compiled
// in and selected at runtime. In this build configuration there is no
// assembly, so it is constant false.
const SupportAdx = false

func mul(z, x, y *Element)                 { mulGeneric(z, x, y) }
func square(z, x *Element)                 { squareGeneric(z, x) }
func add(z, x, y *Element)                 { addGeneric(z, x, y) }
func sub(z, x, y *Element)                 { subGeneric(z, x, y) }
func neg(z, x *Element)                    { negGeneric(z, x) }
func double(z, x *Element)                 { doubleGeneric(z, x) }
func mulWide(w *Wide, x, y *Element)       { mulWideGeneric(w, x, y) }
func reduceWide(z *Element, w *Wide)       { reduceWideGeneric(z, w) }
func addE2(z, x, y *E2)                    { addE2Composed(z, x, y) }
func subE2(z, x, y *E2)                    { subE2Composed(z, x, y) }
func doubleE2(z, x *E2)                    { doubleE2Composed(z, x) }
func mulByXiE2(z, x *E2)                   { mulByXiComposed(z, x) }
func mulE2(z, x, y *E2)                    { mulE2Composed(z, x, y) }
func squareE2(z, x *E2)                    { squareE2Composed(z, x) }
func mulAccE2(c0, c1 *Wide, x, y *E2)      { mulAccComposed(c0, c1, x, y) }
func cycSquare(z, x *[6]E2)                { cycSquareComposed(z, x) }
func mulE6(z, x, y *[3]E2)                 { mulE6Composed(z, x, y) }
func mulE12(z, x, y *[6]E2)                { mulE12Composed(z, x, y) }
func mulBySparse(z *[6]E2, c0, c1, c3 *E2) { mulBySparseComposed(z, c0, c1, c3) }
