//go:build amd64 && !purego

package fp

// SupportAdx reports whether the MULX/ADCX/ADOX kernels are selected at
// runtime. Probed once at startup via CPUID (leaf 7 EBX: BMI2 bit 8,
// ADX bit 19); the branch in mul/square below is on this input-
// independent flag, so dispatch leaks nothing about operand values.
var SupportAdx = cpuHasAdx()

// cpuHasAdx reports whether the CPU implements both ADX and BMI2.
func cpuHasAdx() bool

//go:noescape
func fpMul(z, x, y *Element)

//go:noescape
func fpAdd(z, x, y *Element)

//go:noescape
func fpSub(z, x, y *Element)

//go:noescape
func fpNeg(z, x *Element)

//go:noescape
func fpDouble(z, x *Element)

//go:noescape
func fpMulWide(w *Wide, x, y *Element)

//go:noescape
func fpReduceWide(z *Element, w *Wide)

func mul(z, x, y *Element) {
	if SupportAdx {
		fpMul(z, x, y)
		return
	}
	mulGeneric(z, x, y)
}

func square(z, x *Element) {
	// A dedicated 4-limb squaring saves too little over the CIOS
	// multiply to justify a second carry chain (gnark-crypto reached
	// the same conclusion for 4-limb fields).
	if SupportAdx {
		fpMul(z, x, x)
		return
	}
	mulGeneric(z, x, x)
}

// Add/Sub/Neg/Double use only ADD/ADC/SBB/CMOV, available on every
// amd64, so they never fall back.
func add(z, x, y *Element) { fpAdd(z, x, y) }
func sub(z, x, y *Element) { fpSub(z, x, y) }
func neg(z, x *Element)    { fpNeg(z, x) }
func double(z, x *Element) { fpDouble(z, x) }

func mulWide(w *Wide, x, y *Element) {
	if SupportAdx {
		fpMulWide(w, x, y)
		return
	}
	mulWideGeneric(w, x, y)
}

func reduceWide(z *Element, w *Wide) {
	if SupportAdx {
		fpReduceWide(z, w)
		return
	}
	reduceWideGeneric(z, w)
}

//go:noescape
func fpAddE2(z, x, y *E2)

//go:noescape
func fpSubE2(z, x, y *E2)

//go:noescape
func fpDoubleE2(z, x *E2)

//go:noescape
func fpMulByXiE2(z, x *E2)

//go:noescape
func fpMulAccE2(c0, c1 *Wide, x, y *E2)

//go:noescape
func fpMulE2(z, x, y *E2)

//go:noescape
func fpSquareE2(z, x *E2)

//go:noescape
func fpCycSquare(z, x *[6]E2)

//go:noescape
func fpMulE6(z, x, y *[3]E2)

//go:noescape
func fpMulE12(z, x, y *[6]E2)

//go:noescape
func fpMulBySparse(z *[6]E2, c0, c1, c3 *E2)

// The E2 kernels: add/sub/double/ξ in assembly on every amd64, as Add/Sub
// are; the products run fpMulWide's MULX rows, so they fall back with it.
func addE2(z, x, y *E2)  { fpAddE2(z, x, y) }
func subE2(z, x, y *E2)  { fpSubE2(z, x, y) }
func doubleE2(z, x *E2)  { fpDoubleE2(z, x) }
func mulByXiE2(z, x *E2) { fpMulByXiE2(z, x) }

func mulE2(z, x, y *E2) {
	if SupportAdx {
		fpMulE2(z, x, y)
		return
	}
	mulE2Composed(z, x, y)
}

func squareE2(z, x *E2) {
	if SupportAdx {
		fpSquareE2(z, x)
		return
	}
	squareE2Composed(z, x)
}

func mulAccE2(c0, c1 *Wide, x, y *E2) {
	if SupportAdx {
		fpMulAccE2(c0, c1, x, y)
		return
	}
	mulAccComposed(c0, c1, x, y)
}

func cycSquare(z, x *[6]E2) {
	if SupportAdx {
		fpCycSquare(z, x)
		return
	}
	cycSquareComposed(z, x)
}

func mulE6(z, x, y *[3]E2) {
	if SupportAdx {
		fpMulE6(z, x, y)
		return
	}
	mulE6Composed(z, x, y)
}

func mulE12(z, x, y *[6]E2) {
	if SupportAdx {
		fpMulE12(z, x, y)
		return
	}
	mulE12Composed(z, x, y)
}

func mulBySparse(z *[6]E2, c0, c1, c3 *E2) {
	if SupportAdx {
		fpMulBySparse(z, c0, c1, c3)
		return
	}
	mulBySparseComposed(z, c0, c1, c3)
}
