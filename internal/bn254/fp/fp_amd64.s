//go:build amd64 && !purego

// BN254 Fp kernels for amd64. fpMul is a MULX/ADCX/ADOX interleaved
// CIOS Montgomery product (montMul: dual carry chains, one reduction step
// folded into each of the four multiply rounds). fpMulWide/fpReduceWide
// split the same arithmetic into its two halves for the lazy-reduction
// tower paths. fpAdd/fpSub/fpNeg/fpDouble are branch-free ADD/ADC +
// CMOV/mask sequences that run on every amd64, as do the Fp2 pair kernels
// fpAddE2/fpSubE2/fpDoubleE2/fpMulByXiE2 built from them; the MULX
// kernels, the Fp2 products fpMulE2/fpSquareE2/fpMulAccE2, the Fp6 and
// Fp12 products fpMulE6/fpMulE12, the sparse line fold fpMulBySparse and
// the cyclotomic squaring fpCycSquare among them, are gated on the runtime
// ADX+BMI2 probe (cpuHasAdx) from fp_amd64.go.

#include "textflag.h"

DATA q<>+0(SB)/8, $0x3c208c16d87cfd47
DATA q<>+8(SB)/8, $0x97816a916871ca8d
DATA q<>+16(SB)/8, $0xb85045b68181585d
DATA q<>+24(SB)/8, $0x30644e72e131a029
GLOBL q<>(SB), RODATA, $32

DATA qInvNeg<>+0(SB)/8, $0x87d20782e4866389
GLOBL qInvNeg<>(SB), RODATA, $8

// reduceOnce canonicalises a0..a3 < 2q: subtract q in s0..s3 and keep the
// difference unless it borrowed.
#define reduceOnce(a0, a1, a2, a3, s0, s1, s2, s3) \
	MOVQ    a0, s0;            \
	MOVQ    a1, s1;            \
	MOVQ    a2, s2;            \
	MOVQ    a3, s3;            \
	SUBQ    q<>+0(SB), s0;     \
	SBBQ    q<>+8(SB), s1;     \
	SBBQ    q<>+16(SB), s2;    \
	SBBQ    q<>+24(SB), s3;    \
	CMOVQCC s0, a0;            \
	CMOVQCC s1, a1;            \
	CMOVQCC s2, a2;            \
	CMOVQCC s3, a3

#define load(p, off, a0, a1, a2, a3) \
	MOVQ off+0(p), a0;                \
	MOVQ off+8(p), a1;                \
	MOVQ off+16(p), a2;               \
	MOVQ off+24(p), a3

#define store(p, off, a0, a1, a2, a3) \
	MOVQ a0, off+0(p);                 \
	MOVQ a1, off+8(p);                 \
	MOVQ a2, off+16(p);                \
	MOVQ a3, off+24(p)

// func cpuHasAdx() bool
// CPUID leaf 7 sub-leaf 0, EBX bit 8 (BMI2) and bit 19 (ADX); leaf 7
// must first be reported supported by leaf 0.
TEXT ·cpuHasAdx(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  adx_no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, AX
	SHRL $8, AX
	ANDL $1, AX
	SHRL $19, BX
	ANDL $1, BX
	ANDL BX, AX
	MOVB AX, ret+0(FP)
	RET

adx_no:
	MOVB $0, ret+0(FP)
	RET

// The Montgomery product's register plan: x limbs in DI, R8, R9, R10; y
// scanned limb by limb through DX (MULX's implicit operand); the running
// window t in R11–R14 with top limb CX; AX and BX scratch. Each round
// multiplies by one y limb (the ADOX chain carries the lows, ADCX the
// highs) and then folds one Montgomery step m = t0·(−1/q) mod 2^64,
// t = (t + m·q)/2^64.

// montFirst sets t = x · (the y limb at off(yp)).
#define montFirst(yp, off) \
	XORQ  AX, AX;       \
	MOVQ  off(yp), DX;  \
	MULXQ DI, R11, R12; \
	MULXQ R8, AX, R13;  \
	ADOXQ AX, R12;      \
	MULXQ R9, AX, R14;  \
	ADOXQ AX, R13;      \
	MULXQ R10, AX, CX;  \
	ADOXQ AX, R14;      \
	MOVQ  $0, AX;       \
	ADOXQ AX, CX

// montNext sets t += x · (the y limb at off(yp)); CX is free on entry.
#define montNext(yp, off) \
	XORQ  AX, AX;      \
	MOVQ  off(yp), DX; \
	MULXQ DI, AX, CX;  \
	ADOXQ AX, R11;     \
	ADCXQ CX, R12;     \
	MULXQ R8, AX, CX;  \
	ADOXQ AX, R12;     \
	ADCXQ CX, R13;     \
	MULXQ R9, AX, CX;  \
	ADOXQ AX, R13;     \
	ADCXQ CX, R14;     \
	MULXQ R10, AX, CX; \
	ADOXQ AX, R14;     \
	MOVQ  $0, AX;      \
	ADCXQ AX, CX;      \
	ADOXQ AX, CX

// montStep folds one Montgomery step into t, leaving four limbs.
#define montStep \
	MOVQ  qInvNeg<>(SB), DX;   \
	IMULQ R11, DX;             \
	XORQ  AX, AX;              \
	MULXQ q<>+0(SB), AX, BX;   \
	ADCXQ R11, AX;             \
	MOVQ  BX, R11;             \
	ADCXQ R12, R11;            \
	MULXQ q<>+8(SB), AX, R12;  \
	ADOXQ AX, R11;             \
	ADCXQ R13, R12;            \
	MULXQ q<>+16(SB), AX, R13; \
	ADOXQ AX, R12;             \
	ADCXQ R14, R13;            \
	MULXQ q<>+24(SB), AX, R14; \
	ADOXQ AX, R13;             \
	MOVQ  $0, AX;              \
	ADCXQ CX, R14;             \
	ADOXQ AX, R14

// montMul sets R11–R14 to x·y·R⁻¹ mod q for the y limbs at off(yp), with
// one conditional subtraction (DI, R8–R10 are its scratch). For x, y < 2q
// the window stays below x + q < 3q < R, so no carry is lost, and the
// result, below (4q/R + 1)·q < 2q, is canonical. Clobbers AX, BX, CX, DX.
#define montMul(yp, off) \
	montFirst(yp, off);   \
	montStep;             \
	montNext(yp, off+8);  \
	montStep;             \
	montNext(yp, off+16); \
	montStep;             \
	montNext(yp, off+24); \
	montStep;             \
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10)

// func fpMul(z, x, y *Element)
// The no-carry CIOS: the no-carry optimisation applies because q's top
// limb is < 2^62.
TEXT ·fpMul(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), SI
	load(AX, 0, DI, R8, R9, R10)
	montMul(SI, 0)
	MOVQ z+0(FP), AX
	store(AX, 0, R11, R12, R13, R14)
	RET

// mulWide sets the eight limbs at doff(dst) to the full product of the x
// limbs in DI, R8, R9, R10 and the y limbs at yoff(yp): the multiply half
// of fpMul with the reduction left out. Four rows build the 512-bit
// product in a five-register window (R11–R14, CX) that rotates by name:
// each row stores its finished low limb and takes that register as the
// new top. Clobbers AX and DX.
#define mulWide(yp, yoff, dst, doff) \
	XORQ  CX, CX;                                 \
	MOVQ  yoff+0(yp), DX;                         \
	MULXQ DI, R11, R12;                           \
	MULXQ R8, AX, R13;                            \
	ADOXQ AX, R12;                                \
	MULXQ R9, AX, R14;                            \
	ADOXQ AX, R13;                                \
	MULXQ R10, AX, CX;                            \
	ADOXQ AX, R14;                                \
	MOVQ  $0, AX;                                 \
	ADOXQ AX, CX;                                 \
	MOVQ  R11, doff+0(dst);                       \
	mulWideRow(yp, yoff+8, R12, R13, R14, CX, R11);  \
	MOVQ  R12, doff+8(dst);                       \
	mulWideRow(yp, yoff+16, R13, R14, CX, R11, R12); \
	MOVQ  R13, doff+16(dst);                      \
	mulWideRow(yp, yoff+24, R14, CX, R11, R12, R13); \
	MOVQ  R14, doff+24(dst);                      \
	MOVQ  CX, doff+32(dst);                       \
	MOVQ  R11, doff+40(dst);                      \
	MOVQ  R12, doff+48(dst);                      \
	MOVQ  R13, doff+56(dst)

// mulWideRow adds x · (the y limb at off(yp)) into the window w0..w3,
// leaving the new top limb in w4.
#define mulWideRow(yp, off, w0, w1, w2, w3, w4) \
	XORQ  AX, AX;       \
	MOVQ  off(yp), DX;  \
	MULXQ DI, AX, w4;   \
	ADOXQ AX, w0;       \
	ADCXQ w4, w1;       \
	MULXQ R8, AX, w4;   \
	ADOXQ AX, w1;       \
	ADCXQ w4, w2;       \
	MULXQ R9, AX, w4;   \
	ADOXQ AX, w2;       \
	ADCXQ w4, w3;       \
	MULXQ R10, AX, w4;  \
	ADOXQ AX, w3;       \
	MOVQ  $0, AX;       \
	ADCXQ AX, w4;       \
	ADOXQ AX, w4

// func fpMulWide(w *Wide, x, y *Element)
TEXT ·fpMulWide(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), SI
	MOVQ w+0(FP), BX
	MOVQ 0(AX), DI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10
	mulWide(SI, 0, BX, 0)
	RET

// redcRound adds m·q to the window whose lowest limb is t0, with m =
// t0·qInvNeg so that limb becomes zero: the product limbs of m·q land in
// BX, CX, SI, DX, and the low product limb is −t0 by construction, so NEG
// sets the carry its addition would have made. The caller adds BX, CX, SI
// and DX into the next four limbs and ripples the carry to the top.
// Clobbers AX.
#define redcRound(t0) \
	MOVQ  qInvNeg<>(SB), DX;  \
	IMULQ t0, DX;             \
	MULXQ q<>+0(SB), AX, BX;  \
	MULXQ q<>+8(SB), AX, CX;  \
	ADDQ  AX, BX;             \
	MULXQ q<>+16(SB), AX, SI; \
	ADCQ  AX, CX;             \
	MULXQ q<>+24(SB), AX, DX; \
	ADCQ  AX, SI;             \
	ADCQ  $0, DX;             \
	NEGQ  t0

// redcWide is the REDC of the eight limbs w in DI, R8–R14: four rounds
// each zero the lowest live limb and ripple the carry to the top, leaving
// (w + M·q)/R ≡ w·R⁻¹ (mod q), with M < R and so below w/R + q, in
// R11–R14. The running value fits 512 bits whenever w < 2^512 − qR.
// Clobbers AX, BX, CX, DX and SI.
#define redcWide \
	redcRound(DI);  \
	ADCQ BX, R8;    \
	ADCQ CX, R9;    \
	ADCQ SI, R10;   \
	ADCQ DX, R11;   \
	ADCQ $0, R12;   \
	ADCQ $0, R13;   \
	ADCQ $0, R14;   \
	redcRound(R8);  \
	ADCQ BX, R9;    \
	ADCQ CX, R10;   \
	ADCQ SI, R11;   \
	ADCQ DX, R12;   \
	ADCQ $0, R13;   \
	ADCQ $0, R14;   \
	redcRound(R9);  \
	ADCQ BX, R10;   \
	ADCQ CX, R11;   \
	ADCQ SI, R12;   \
	ADCQ DX, R13;   \
	ADCQ $0, R14;   \
	redcRound(R10); \
	ADCQ BX, R11;   \
	ADCQ CX, R12;   \
	ADCQ SI, R13;   \
	ADCQ DX, R14

// func fpReduceWide(z *Element, w *Wide)
// Full-width REDC under the w < 4qR contract: the running value stays
// below 4qR + qR < 2^512, and the < 5q result is canonicalised by four
// masked conditional-subtract passes.
TEXT ·fpReduceWide(SB), NOSPLIT, $0-16
	MOVQ w+8(FP), AX
	load(AX, 0, DI, R8, R9, R10)
	load(AX, 32, R11, R12, R13, R14)
	redcWide
	reduceOnce(R11, R12, R13, R14, AX, BX, CX, SI)
	reduceOnce(R11, R12, R13, R14, AX, BX, CX, SI)
	reduceOnce(R11, R12, R13, R14, AX, BX, CX, SI)
	reduceOnce(R11, R12, R13, R14, AX, BX, CX, SI)
	MOVQ z+0(FP), AX
	store(AX, 0, R11, R12, R13, R14)
	RET

// func fpAdd(z, x, y *Element)
TEXT ·fpAdd(SB), NOSPLIT, $0-24
	MOVQ    x+8(FP), AX
	MOVQ    y+16(FP), BX
	MOVQ    0(AX), CX
	MOVQ    8(AX), DI
	MOVQ    16(AX), SI
	MOVQ    24(AX), R8
	ADDQ    0(BX), CX
	ADCQ    8(BX), DI
	ADCQ    16(BX), SI
	ADCQ    24(BX), R8
	MOVQ    CX, R9
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    R8, R12
	SUBQ    q<>+0(SB), R9
	SBBQ    q<>+8(SB), R10
	SBBQ    q<>+16(SB), R11
	SBBQ    q<>+24(SB), R12
	CMOVQCC R9, CX
	CMOVQCC R10, DI
	CMOVQCC R11, SI
	CMOVQCC R12, R8
	MOVQ    z+0(FP), AX
	MOVQ    CX, 0(AX)
	MOVQ    DI, 8(AX)
	MOVQ    SI, 16(AX)
	MOVQ    R8, 24(AX)
	RET

// func fpDouble(z, x *Element)
TEXT ·fpDouble(SB), NOSPLIT, $0-16
	MOVQ    x+8(FP), AX
	MOVQ    0(AX), CX
	MOVQ    8(AX), DI
	MOVQ    16(AX), SI
	MOVQ    24(AX), R8
	ADDQ    CX, CX
	ADCQ    DI, DI
	ADCQ    SI, SI
	ADCQ    R8, R8
	MOVQ    CX, R9
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    R8, R12
	SUBQ    q<>+0(SB), R9
	SBBQ    q<>+8(SB), R10
	SBBQ    q<>+16(SB), R11
	SBBQ    q<>+24(SB), R12
	CMOVQCC R9, CX
	CMOVQCC R10, DI
	CMOVQCC R11, SI
	CMOVQCC R12, R8
	MOVQ    z+0(FP), AX
	MOVQ    CX, 0(AX)
	MOVQ    DI, 8(AX)
	MOVQ    SI, 16(AX)
	MOVQ    R8, 24(AX)
	RET

// func fpSub(z, x, y *Element)
TEXT ·fpSub(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), BX
	MOVQ 0(AX), CX
	MOVQ 8(AX), DI
	MOVQ 16(AX), SI
	MOVQ 24(AX), R8
	SUBQ 0(BX), CX
	SBBQ 8(BX), DI
	SBBQ 16(BX), SI
	SBBQ 24(BX), R8
	SBBQ AX, AX
	MOVQ q<>+0(SB), R9
	MOVQ q<>+8(SB), R10
	MOVQ q<>+16(SB), R11
	MOVQ q<>+24(SB), R12
	ANDQ AX, R9
	ANDQ AX, R10
	ANDQ AX, R11
	ANDQ AX, R12
	ADDQ R9, CX
	ADCQ R10, DI
	ADCQ R11, SI
	ADCQ R12, R8
	MOVQ z+0(FP), AX
	MOVQ CX, 0(AX)
	MOVQ DI, 8(AX)
	MOVQ SI, 16(AX)
	MOVQ R8, 24(AX)
	RET

// func fpNeg(z, x *Element)
TEXT ·fpNeg(SB), NOSPLIT, $0-16
	MOVQ x+8(FP), AX
	MOVQ 0(AX), CX
	MOVQ 8(AX), DI
	MOVQ 16(AX), SI
	MOVQ 24(AX), R8
	MOVQ CX, R9
	ORQ  DI, R9
	ORQ  SI, R9
	ORQ  R8, R9
	NEGQ R9
	SBBQ R9, R9
	MOVQ q<>+0(SB), R10
	MOVQ q<>+8(SB), R11
	MOVQ q<>+16(SB), R12
	MOVQ q<>+24(SB), R13
	SUBQ CX, R10
	SBBQ DI, R11
	SBBQ SI, R12
	SBBQ R8, R13
	ANDQ R9, R10
	ANDQ R9, R11
	ANDQ R9, R12
	ANDQ R9, R13
	MOVQ z+0(FP), AX
	MOVQ R10, 0(AX)
	MOVQ R11, 8(AX)
	MOVQ R12, 16(AX)
	MOVQ R13, 24(AX)
	RET

// The E2 kernels work on both coefficients of a pair (C0 at offset 0, C1
// at 32) in one call. A coefficient's inputs are all read before it is
// stored, so z may alias x or y.

// doubleMod sets a0..a3 = 2a mod q.
#define doubleMod(a0, a1, a2, a3, s0, s1, s2, s3) \
	ADDQ a0, a0;                                   \
	ADCQ a1, a1;                                   \
	ADCQ a2, a2;                                   \
	ADCQ a3, a3;                                   \
	reduceOnce(a0, a1, a2, a3, s0, s1, s2, s3)

// addMod sets a0..a3 = a + m mod q for m in memory at off(p).
#define addMod(p, off, a0, a1, a2, a3, s0, s1, s2, s3) \
	ADDQ off+0(p), a0;                                  \
	ADCQ off+8(p), a1;                                  \
	ADCQ off+16(p), a2;                                 \
	ADCQ off+24(p), a3;                                 \
	reduceOnce(a0, a1, a2, a3, s0, s1, s2, s3)

// subMod sets a0..a3 = a − m mod q for m at off(p): on a borrow, add q
// back, masked by s4.
#define subMod(p, off, a0, a1, a2, a3, s0, s1, s2, s3, s4) \
	SUBQ off+0(p), a0;                                      \
	SBBQ off+8(p), a1;                                      \
	SBBQ off+16(p), a2;                                     \
	SBBQ off+24(p), a3;                                     \
	SBBQ s4, s4;                                            \
	MOVQ q<>+0(SB), s0;                                     \
	MOVQ q<>+8(SB), s1;                                     \
	MOVQ q<>+16(SB), s2;                                    \
	MOVQ q<>+24(SB), s3;                                    \
	ANDQ s4, s0;                                            \
	ANDQ s4, s1;                                            \
	ANDQ s4, s2;                                            \
	ANDQ s4, s3;                                            \
	ADDQ s0, a0;                                            \
	ADCQ s1, a1;                                            \
	ADCQ s2, a2;                                            \
	ADCQ s3, a3

// func fpAddE2(z, x, y *E2)
TEXT ·fpAddE2(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), BX
	MOVQ z+0(FP), DX
	load(AX, 0, CX, DI, SI, R8)
	addMod(BX, 0, CX, DI, SI, R8, R9, R10, R11, R12)
	store(DX, 0, CX, DI, SI, R8)
	load(AX, 32, CX, DI, SI, R8)
	addMod(BX, 32, CX, DI, SI, R8, R9, R10, R11, R12)
	store(DX, 32, CX, DI, SI, R8)
	RET

// func fpSubE2(z, x, y *E2)
TEXT ·fpSubE2(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), BX
	MOVQ z+0(FP), DX
	load(AX, 0, CX, DI, SI, R8)
	subMod(BX, 0, CX, DI, SI, R8, R9, R10, R11, R12, R13)
	store(DX, 0, CX, DI, SI, R8)
	load(AX, 32, CX, DI, SI, R8)
	subMod(BX, 32, CX, DI, SI, R8, R9, R10, R11, R12, R13)
	store(DX, 32, CX, DI, SI, R8)
	RET

// func fpDoubleE2(z, x *E2)
TEXT ·fpDoubleE2(SB), NOSPLIT, $0-16
	MOVQ x+8(FP), AX
	MOVQ z+0(FP), DX
	load(AX, 0, CX, DI, SI, R8)
	doubleMod(CX, DI, SI, R8, R9, R10, R11, R12)
	store(DX, 0, CX, DI, SI, R8)
	load(AX, 32, CX, DI, SI, R8)
	doubleMod(CX, DI, SI, R8, R9, R10, R11, R12)
	store(DX, 32, CX, DI, SI, R8)
	RET

// fpCycSquare and fpMulE6's ξ sum small multiples of values below 4q into
// a five-limb t in DI, R8, R9, R10, R11 and reduce it once (reduceSmall);
// AX, BX, CX, DX and R12–R14 are scratch. Each site states its bound on t;
// reduceSmall holds below 3348q.

// op4 applies op0 then the carrying op to four limbs from the four at off(p).
#define op4(op0, op, p, off, a0, a1, a2, a3) \
	op0 off+0(p), a0;  \
	op  off+8(p), a1;  \
	op  off+16(p), a2; \
	op  off+24(p), a3

// add5 sets t += m and sub5 sets t −= m for the four limbs m at off(p).
#define add5(p, off) \
	op4(ADDQ, ADCQ, p, off, DI, R8, R9, R10); \
	ADCQ $0, R11

#define sub5(p, off) \
	op4(SUBQ, SBBQ, p, off, DI, R8, R9, R10); \
	SBBQ $0, R11

// mulSmall sets t = k·m for the four limbs m at off(p).
#define mulSmall(k, p, off) \
	MOVQ  $k, DX;             \
	MULXQ off+0(p), DI, R8;   \
	MULXQ off+8(p), AX, R9;   \
	ADDQ  AX, R8;             \
	MULXQ off+16(p), AX, R10; \
	ADCQ  AX, R9;             \
	MULXQ off+24(p), AX, R11; \
	ADCQ  AX, R10;            \
	ADCQ  $0, R11

// mulSmallAdd sets t += k·m for the four limbs m at off(p).
#define mulSmallAdd(k, p, off) \
	MOVQ  $k, DX;             \
	MULXQ off+0(p), AX, BX;   \
	MULXQ off+8(p), CX, R12;  \
	ADDQ  CX, BX;             \
	MULXQ off+16(p), CX, R13; \
	ADCQ  CX, R12;            \
	MULXQ off+24(p), CX, R14; \
	ADCQ  CX, R13;            \
	ADCQ  $0, R14;            \
	ADDQ  AX, DI;             \
	ADCQ  BX, R8;             \
	ADCQ  R12, R9;            \
	ADCQ  R13, R10;           \
	ADCQ  R14, R11

// reduceSmall sets DI, R8, R9, R10 to t mod q, canonical, for t < 3348q.
// The quotient estimate k = ⌊⌊t/2^242⌋·0x15277f/2^32⌋ (0x15277f/2^32 is
// just under 2^242/q) never exceeds ⌊t/q⌋ and, below 3348q, falls short of
// it by at most one, so t − k·q, formed on the low four limbs, is below 2q
// and one conditional subtraction finishes it.
#define reduceSmall \
	MOVQ   R10, DX;             \
	SHRQ   $50, R11, DX;        \
	IMUL3Q $0x15277f, DX, DX;   \
	SHRQ   $32, DX;             \
	MULXQ  q<>+0(SB), AX, BX;   \
	MULXQ  q<>+8(SB), CX, R12;  \
	ADDQ   CX, BX;              \
	MULXQ  q<>+16(SB), CX, R13; \
	ADCQ   CX, R12;             \
	MULXQ  q<>+24(SB), CX, R11; \
	ADCQ   CX, R13;             \
	SUBQ   AX, DI;              \
	SBBQ   BX, R8;              \
	SBBQ   R12, R9;             \
	SBBQ   R13, R10;            \
	reduceOnce(DI, R8, R9, R10, AX, BX, CX, R12)

// func fpMulByXiE2(z, x *E2)
// (a, b) ↦ (9a − b, a + 9b) with a, b read from x (AX) throughout: 9a by
// three doublings and an addition in R8–R11, then 9a + (q − b) < 2q and
// one subtraction give C0; 9b the same way in BX, CX, DX, SI, plus a, gives
// C1. R12–R14 and DI are scratch. Both results stay in registers until
// the stores, so z may alias x.
TEXT ·fpMulByXiE2(SB), NOSPLIT, $0-16
	MOVQ x+8(FP), AX
	load(AX, 0, R8, R9, R10, R11)
	doubleMod(R8, R9, R10, R11, R12, R13, R14, DI)
	doubleMod(R8, R9, R10, R11, R12, R13, R14, DI)
	doubleMod(R8, R9, R10, R11, R12, R13, R14, DI)
	addMod(AX, 0, R8, R9, R10, R11, R12, R13, R14, DI)
	MOVQ q<>+0(SB), R12
	MOVQ q<>+8(SB), R13
	MOVQ q<>+16(SB), R14
	MOVQ q<>+24(SB), DI
	SUBQ 32(AX), R12
	SBBQ 40(AX), R13
	SBBQ 48(AX), R14
	SBBQ 56(AX), DI
	ADDQ R12, R8
	ADCQ R13, R9
	ADCQ R14, R10
	ADCQ DI, R11
	reduceOnce(R8, R9, R10, R11, R12, R13, R14, DI)

	load(AX, 32, BX, CX, DX, SI)
	doubleMod(BX, CX, DX, SI, R12, R13, R14, DI)
	doubleMod(BX, CX, DX, SI, R12, R13, R14, DI)
	doubleMod(BX, CX, DX, SI, R12, R13, R14, DI)
	addMod(AX, 32, BX, CX, DX, SI, R12, R13, R14, DI)
	addMod(AX, 0, BX, CX, DX, SI, R12, R13, R14, DI)

	MOVQ z+0(FP), AX
	store(AX, 0, R8, R9, R10, R11)
	store(AX, 32, BX, CX, DX, SI)
	RET

// q² as a Wide, the pad of fpMulAccE2's C0.
DATA q2<>+0(SB)/8, $0x3b5458a2275d69b1
DATA q2<>+8(SB)/8, $0xa602072d09eac101
DATA q2<>+16(SB)/8, $0x4a50189c6d96cadc
DATA q2<>+24(SB)/8, $0x04689e957a1242c8
DATA q2<>+32(SB)/8, $0x26edfa5c34c6b38d
DATA q2<>+40(SB)/8, $0xb00b855116375606
DATA q2<>+48(SB)/8, $0x599a6f7c0348d21c
DATA q2<>+56(SB)/8, $0x0925c4b8763cbf9c
GLOBL q2<>(SB), RODATA, $64

#define load8(p, off, a0, a1, a2, a3, a4, a5, a6, a7) \
	load(p, off, a0, a1, a2, a3); \
	load(p, off+32, a4, a5, a6, a7)

#define store8(p, off, a0, a1, a2, a3, a4, a5, a6, a7) \
	store(p, off, a0, a1, a2, a3); \
	store(p, off+32, a4, a5, a6, a7)

// op8 applies op0 then the carrying op to the eight limbs at off(p).
#define op8(op0, op, p, off, a0, a1, a2, a3, a4, a5, a6, a7) \
	op0 off+0(p), a0;  \
	op  off+8(p), a1;  \
	op  off+16(p), a2; \
	op  off+24(p), a3; \
	op  off+32(p), a4; \
	op  off+40(p), a5; \
	op  off+48(p), a6; \
	op  off+56(p), a7

// karatsubaWide forms the three wide products of x·y for the E2 pairs at
// xp and yp in the frame: ac at 0(SP), bd at 64(SP), the loose sum
// s' = c + d at 128(SP) and s·s' at 160(SP), with s = a + b. Loose sums of
// canonical coefficients are < 2q < 2^256, so no carry leaves four limbs.
// Reads x and y only here; clobbers every register but BX.
#define karatsubaWide(xp, yp) \
	load(xp, 0, DI, R8, R9, R10);    \
	mulWide(yp, 0, SP, 0);           \
	load(xp, 32, DI, R8, R9, R10);   \
	mulWide(yp, 32, SP, 64);         \
	load(yp, 0, DI, R8, R9, R10);    \
	ADDQ 32(yp), DI;                 \
	ADCQ 40(yp), R8;                 \
	ADCQ 48(yp), R9;                 \
	ADCQ 56(yp), R10;                \
	store(SP, 128, DI, R8, R9, R10); \
	load(xp, 0, DI, R8, R9, R10);    \
	ADDQ 32(xp), DI;                 \
	ADCQ 40(xp), R8;                 \
	ADCQ 48(xp), R9;                 \
	ADCQ 56(xp), R10;                \
	LEAQ 128(SP), SI;                \
	mulWide(SI, 0, SP, 160)

// func fpMulAccE2(c0, c1 *Wide, x, y *E2)
// MulAcc in one call: karatsubaWide, then c0 += ac + q² − bd and
// c1 += (s·s' − ac − bd), eight limbs at a time in BX, CX, DX, SI, DI,
// R8, R9, R10.
TEXT ·fpMulAccE2(SB), NOSPLIT, $224-32
	MOVQ x+16(FP), BX
	MOVQ y+24(FP), SI
	karatsubaWide(BX, SI)

	MOVQ c0+0(FP), AX
	load8(AX, 0, BX, CX, DX, SI, DI, R8, R9, R10)
	op8(ADDQ, ADCQ, SP, 0, BX, CX, DX, SI, DI, R8, R9, R10)
	op8(ADDQ, ADCQ, SB, q2<>, BX, CX, DX, SI, DI, R8, R9, R10)
	op8(SUBQ, SBBQ, SP, 64, BX, CX, DX, SI, DI, R8, R9, R10)
	store8(AX, 0, BX, CX, DX, SI, DI, R8, R9, R10)

	load8(SP, 160, BX, CX, DX, SI, DI, R8, R9, R10)
	op8(SUBQ, SBBQ, SP, 0, BX, CX, DX, SI, DI, R8, R9, R10)
	op8(SUBQ, SBBQ, SP, 64, BX, CX, DX, SI, DI, R8, R9, R10)
	MOVQ c1+8(FP), AX
	op8(ADDQ, ADCQ, AX, 0, BX, CX, DX, SI, DI, R8, R9, R10)
	store8(AX, 0, BX, CX, DX, SI, DI, R8, R9, R10)
	RET

// func fpMulE2(z, x, y *E2)
// karatsubaWide, then C1 = REDC(s·s' − ac − bd), exact and < 2q², and
// C0 = REDC(ac + q² − bd), padded and < 2q², each in DI, R8–R14. A wide
// value below 2q² < 0.38·qR reduces below 1.38q, so one conditional
// subtraction canonicalises it.
TEXT ·fpMulE2(SB), NOSPLIT, $224-24
	MOVQ x+8(FP), BX
	MOVQ y+16(FP), SI
	karatsubaWide(BX, SI)

	load8(SP, 160, DI, R8, R9, R10, R11, R12, R13, R14)
	op8(SUBQ, SBBQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14)
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14)
	redcWide
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10)
	MOVQ z+0(FP), AX
	store(AX, 32, R11, R12, R13, R14)

	load8(SP, 0, DI, R8, R9, R10, R11, R12, R13, R14)
	op8(ADDQ, ADCQ, SB, q2<>, DI, R8, R9, R10, R11, R12, R13, R14)
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14)
	redcWide
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10)
	MOVQ z+0(FP), AX
	store(AX, 0, R11, R12, R13, R14)
	RET

// func fpSquareE2(z, x *E2)
// (a + bi)² = (a + b)(a − b + q) + 2ab·i by two montMul: the loose
// a − b + q, in (0, 2q), waits at 0(SP) for the loose a + b; C0 then waits
// there, since z may alias x, while 2a (loose) multiplies b.
TEXT ·fpSquareE2(SB), NOSPLIT, $32-16
	MOVQ x+8(FP), SI
	load(SI, 0, DI, R8, R9, R10)
	ADDQ q<>+0(SB), DI
	ADCQ q<>+8(SB), R8
	ADCQ q<>+16(SB), R9
	ADCQ q<>+24(SB), R10
	SUBQ 32(SI), DI
	SBBQ 40(SI), R8
	SBBQ 48(SI), R9
	SBBQ 56(SI), R10
	store(SP, 0, DI, R8, R9, R10)
	load(SI, 0, DI, R8, R9, R10)
	ADDQ 32(SI), DI
	ADCQ 40(SI), R8
	ADCQ 48(SI), R9
	ADCQ 56(SI), R10
	montMul(SP, 0)
	store(SP, 0, R11, R12, R13, R14)

	load(SI, 0, DI, R8, R9, R10)
	ADDQ DI, DI
	ADCQ R8, R8
	ADCQ R9, R9
	ADCQ R10, R10
	montMul(SI, 32)
	MOVQ z+0(FP), AX
	store(AX, 32, R11, R12, R13, R14)
	load(SP, 0, R11, R12, R13, R14)
	store(AX, 0, R11, R12, R13, R14)
	RET


// 2q, the pad of fpCycSquare's output sums, and 3q² and 5q², pads of its
// wide sums.
DATA twoQ<>+0(SB)/8, $0x7841182db0f9fa8e
DATA twoQ<>+8(SB)/8, $0x2f02d522d0e3951a
DATA twoQ<>+16(SB)/8, $0x70a08b6d0302b0bb
DATA twoQ<>+24(SB)/8, $0x60c89ce5c2634053
GLOBL twoQ<>(SB), RODATA, $32

DATA q2x3<>+0(SB)/8, $0xb1fd09e676183d13
DATA q2x3<>+8(SB)/8, $0xf20615871dc04303
DATA q2x3<>+16(SB)/8, $0xdef049d548c46095
DATA q2x3<>+24(SB)/8, $0x0d39dbc06e36c858
DATA q2x3<>+32(SB)/8, $0x74c9ef149e541aa7
DATA q2x3<>+40(SB)/8, $0x10228ff342a60212
DATA q2x3<>+48(SB)/8, $0x0ccf4e7409da7656
DATA q2x3<>+56(SB)/8, $0x1b714e2962b63ed5
GLOBL q2x3<>(SB), RODATA, $64

DATA q2x5<>+0(SB)/8, $0x28a5bb2ac4d31075
DATA q2x5<>+8(SB)/8, $0x3e0a23e13195c506
DATA q2x5<>+16(SB)/8, $0x73907b0e23f1f64f
DATA q2x5<>+24(SB)/8, $0x160b18eb625b4de9
DATA q2x5<>+32(SB)/8, $0xc2a5e3cd07e181c1
DATA q2x5<>+40(SB)/8, $0x70399a956f14ae1e
DATA q2x5<>+48(SB)/8, $0xc0042d6c106c1a8f
DATA q2x5<>+56(SB)/8, $0x2dbcd79a4f2fbe0d
GLOBL q2x5<>(SB), RODATA, $64

// The Fp12 kernels below loop over one body each instead of unrolling: an
// Fp4 square, a lazy Fp2 product, a REDC. Their loop state lives in the
// frame, since the bodies use every general register. Unrolled, the
// cyclotomic squaring and the Fp6 product alone take 42 KB, more than a
// 32 KiB L1i, and evict each other in the final exponentiation.

// fpCycSquare's frame: the current Fp4 square re + im·v, re = a0 + a1·i and
// im = b0 + b1·i, keeps its six wide products at 0(SP): R0 = (a0 + a1)
// (a0 − a1 + q) and R1 = 2a0·a1 (re²), I0 and I1 (im², from canonical
// operands), S0 and S1 ((re + im)², from u = a0 + b0 and v = a1 + b1
// reduced). Square j's four reduced sums follow at 384 + 128j(SP):
// re² + ξ·im² and 2re·im, the latter as S − R − I. 768(SP) holds a
// product's second operand, 800(SP) and 832(SP) u and v, 864(SP) a spare
// element; the loop state is at 896(SP).

// mulAdd8 adds k times the eight limbs at off(p) to DI, R8–R14; the caller
// bounds the sum below 2^512, so the last high half and both final carries
// are zero. Clobbers AX, BX and DX.
#define mulAdd8(k, p, off) \
	XORQ  AX, AX;            \
	MOVQ  $k, DX;            \
	MULXQ off+0(p), AX, BX;  \
	ADOXQ AX, DI;            \
	ADCXQ BX, R8;            \
	MULXQ off+8(p), AX, BX;  \
	ADOXQ AX, R8;            \
	ADCXQ BX, R9;            \
	MULXQ off+16(p), AX, BX; \
	ADOXQ AX, R9;            \
	ADCXQ BX, R10;           \
	MULXQ off+24(p), AX, BX; \
	ADOXQ AX, R10;           \
	ADCXQ BX, R11;           \
	MULXQ off+32(p), AX, BX; \
	ADOXQ AX, R11;           \
	ADCXQ BX, R12;           \
	MULXQ off+40(p), AX, BX; \
	ADOXQ AX, R12;           \
	ADCXQ BX, R13;           \
	MULXQ off+48(p), AX, BX; \
	ADOXQ AX, R13;           \
	ADCXQ BX, R14;           \
	MULXQ off+56(p), AX, BX; \
	ADOXQ AX, R14

// fp4Wide sets the block at w(SP) to the six wide products of re + im·v for
// the x pairs at re(SI) and im(SI), every operand below 2q: R0, S0 < 4q²,
// R1, S1 < 2q², I0, I1 < q². Preserves SI.
#define fp4Wide(re, im, w) \
	load(SI, re, DI, R8, R9, R10);                               \
	op4(ADDQ, ADCQ, SB, q<>, DI, R8, R9, R10);                   \
	op4(SUBQ, SBBQ, SI, re+32, DI, R8, R9, R10);                 \
	store(SP, 768, DI, R8, R9, R10);                             \
	load(SI, re, DI, R8, R9, R10);                               \
	op4(ADDQ, ADCQ, SI, re+32, DI, R8, R9, R10);                 \
	mulWide(SP, 768, SP, w);                                     \
	load(SI, re, DI, R8, R9, R10);                               \
	ADDQ DI, DI;                                                 \
	ADCQ R8, R8;                                                 \
	ADCQ R9, R9;                                                 \
	ADCQ R10, R10;                                               \
	mulWide(SI, re+32, SP, w+64);                                \
	load(SI, im, DI, R8, R9, R10);                               \
	subMod(SI, im+32, DI, R8, R9, R10, R11, R12, R13, R14, CX);  \
	store(SP, 768, DI, R8, R9, R10);                             \
	load(SI, im, DI, R8, R9, R10);                               \
	addMod(SI, im+32, DI, R8, R9, R10, R11, R12, R13, R14);      \
	mulWide(SP, 768, SP, w+128);                                 \
	load(SI, im, DI, R8, R9, R10);                               \
	doubleMod(DI, R8, R9, R10, R11, R12, R13, R14);              \
	mulWide(SI, im+32, SP, w+192);                               \
	load(SI, re, DI, R8, R9, R10);                               \
	addMod(SI, im, DI, R8, R9, R10, R11, R12, R13, R14);         \
	store(SP, 800, DI, R8, R9, R10);                             \
	load(SI, re+32, DI, R8, R9, R10);                            \
	addMod(SI, im+32, DI, R8, R9, R10, R11, R12, R13, R14);      \
	store(SP, 832, DI, R8, R9, R10);                             \
	load(SP, 800, DI, R8, R9, R10);                              \
	op4(ADDQ, ADCQ, SB, q<>, DI, R8, R9, R10);                   \
	op4(SUBQ, SBBQ, SP, 832, DI, R8, R9, R10);                   \
	store(SP, 768, DI, R8, R9, R10);                             \
	load(SP, 800, DI, R8, R9, R10);                              \
	op4(ADDQ, ADCQ, SP, 832, DI, R8, R9, R10);                   \
	mulWide(SP, 768, SP, w+256);                                 \
	load(SP, 800, DI, R8, R9, R10);                              \
	ADDQ DI, DI;                                                 \
	ADCQ R8, R8;                                                 \
	ADCQ R9, R9;                                                 \
	ADCQ R10, R10;                                               \
	mulWide(SP, 832, SP, w+256+64)

// fp4Sums stores four sums of the block at w(SP) from the pointer at 904(SP),
// each one REDC of a wide sum (below (w/R + q), loose): re² + ξ·im² as
// R0 + 9I0 + q² − I1 < 14q² (< 3.65q reduced) and R1 + I0 + 9I1 < 12q²,
// 2re·im as S0 + 5q² − R0 − I0 < 9q² (< 2.7q) and S1 + 3q² − R1 − I1 < 5q²
// (< 1.95q). Clobbers SI.
#define fp4Sums(w) \
	load8(SP, w, DI, R8, R9, R10, R11, R12, R13, R14);                \
	mulAdd8(9, SP, w+128);                                            \
	op8(ADDQ, ADCQ, SB, q2<>, DI, R8, R9, R10, R11, R12, R13, R14);   \
	op8(SUBQ, SBBQ, SP, w+192, DI, R8, R9, R10, R11, R12, R13, R14);  \
	redcWide;                                                         \
	MOVQ 904(SP), AX;                                                 \
	store(AX, 0, R11, R12, R13, R14);                                 \
	load8(SP, w+64, DI, R8, R9, R10, R11, R12, R13, R14);             \
	op8(ADDQ, ADCQ, SP, w+128, DI, R8, R9, R10, R11, R12, R13, R14);  \
	mulAdd8(9, SP, w+192);                                            \
	redcWide;                                                         \
	MOVQ 904(SP), AX;                                                 \
	store(AX, 32, R11, R12, R13, R14);                                \
	load8(SP, w+256, DI, R8, R9, R10, R11, R12, R13, R14);            \
	op8(ADDQ, ADCQ, SB, q2x5<>, DI, R8, R9, R10, R11, R12, R13, R14); \
	op8(SUBQ, SBBQ, SP, w, DI, R8, R9, R10, R11, R12, R13, R14);      \
	op8(SUBQ, SBBQ, SP, w+128, DI, R8, R9, R10, R11, R12, R13, R14);  \
	redcWide;                                                         \
	MOVQ 904(SP), AX;                                                 \
	store(AX, 64, R11, R12, R13, R14);                                \
	load8(SP, w+320, DI, R8, R9, R10, R11, R12, R13, R14);            \
	op8(ADDQ, ADCQ, SB, q2x3<>, DI, R8, R9, R10, R11, R12, R13, R14); \
	op8(SUBQ, SBBQ, SP, w+64, DI, R8, R9, R10, R11, R12, R13, R14);   \
	op8(SUBQ, SBBQ, SP, w+192, DI, R8, R9, R10, R11, R12, R13, R14);  \
	redcWide;                                                         \
	MOVQ 904(SP), AX;                                                 \
	store(AX, 96, R11, R12, R13, R14)

// func fpCycSquare(z, x *[6]E2)
// The Granger–Scott squaring in one call: a loop over the three Fp4
// squares A = x[0] + x[3]·v, B = x[1] + x[4]·v and C = x[2] + x[5]·v, six
// wide products and four reductions each (fp4Wide, fp4Sums); ξ on C²'s v
// part; then a loop over j = 0, 1, 2 setting z[2j] = 3s − 2x[2j] from
// square j's re sums s and z[2j + 3 mod 6] = 3s + 2x[2j + 3 mod 6] from its
// v part (v·C² for j = 2), each coefficient one small-multiple sum reduced
// once. The squares read all of x before the first store, and output k
// reads only x[k] afterwards, so z may alias x.
TEXT ·fpCycSquare(SB), $936-16
	MOVQ x+8(FP), AX
	MOVQ AX, 896(SP)
	LEAQ 384(SP), AX
	MOVQ AX, 904(SP)
	MOVQ $3, 912(SP)

cycFp4:
	MOVQ 896(SP), SI
	fp4Wide(0, 192, 0)
	fp4Sums(0)
	ADDQ $64, 896(SP)
	ADDQ $128, 904(SP)
	DECQ 912(SP)
	JNZ  cycFp4

	// C²'s v part (m0, m1) at 704(SP) becomes v·C²'s w⁰ part, ξ·(m0, m1) =
	// (9m0 + 2q − m1, 9m1 + m0): m0 < 2.7q and m1 < 1.95q, so both sums stay
	// below 27q. The second is formed first and waits at 864(SP).
	mulSmall(9, SP, 736)
	add5(SP, 704)
	reduceSmall
	store(SP, 864, DI, R8, R9, R10)
	mulSmall(9, SP, 704)
	add5(SB, twoQ<>)
	sub5(SP, 736)
	reduceSmall
	store(SP, 704, DI, R8, R9, R10)
	load(SP, 864, DI, R8, R9, R10)
	store(SP, 736, DI, R8, R9, R10)

	// SI walks x[2j], R14 square j's sums, 920(SP) z[2j]; 928(SP) is the offset
	// of pair 2j + 3 mod 6. 3s + 2q − 2X < 13q and 3s + 2X < 11q.
	MOVQ x+8(FP), SI
	LEAQ 384(SP), R14
	MOVQ z+0(FP), AX
	MOVQ AX, 920(SP)
	MOVQ $192, 928(SP)
	MOVQ $3, 912(SP)

cycOut:
	mulSmall(3, R14, 0)
	add5(SB, twoQ<>)
	sub5(SI, 0)
	sub5(SI, 0)
	reduceSmall
	MOVQ 920(SP), AX
	store(AX, 0, DI, R8, R9, R10)
	mulSmall(3, R14, 32)
	add5(SB, twoQ<>)
	sub5(SI, 32)
	sub5(SI, 32)
	reduceSmall
	MOVQ 920(SP), AX
	store(AX, 32, DI, R8, R9, R10)

	mulSmall(3, R14, 64)
	MOVQ x+8(FP), BX
	ADDQ 928(SP), BX
	add5(BX, 0)
	add5(BX, 0)
	reduceSmall
	MOVQ z+0(FP), AX
	ADDQ 928(SP), AX
	store(AX, 0, DI, R8, R9, R10)
	mulSmall(3, R14, 96)
	MOVQ x+8(FP), BX
	ADDQ 928(SP), BX
	add5(BX, 32)
	add5(BX, 32)
	reduceSmall
	MOVQ z+0(FP), AX
	ADDQ 928(SP), AX
	store(AX, 32, DI, R8, R9, R10)

	ADDQ    $128, SI
	ADDQ    $128, R14
	ADDQ    $128, 920(SP)
	MOVQ    928(SP), AX
	ADDQ    $128, AX
	LEAQ    -384(AX), DX
	CMPQ    AX, $384
	CMOVQCC DX, AX
	MOVQ    AX, 928(SP)
	DECQ    912(SP)
	JNZ     cycOut
	RET

// xiTo sets the pair at doff(d) to ξ times the pair (a, b) at off(s):
// 9a + q − b and 9b + a, each below 10q, reduced once. s and d may be SP,
// SI or R14; d may not overlap the source pair.
#define xiTo(s, off, d, doff) \
	mulSmall(9, s, off);               \
	add5(SB, q<>);                     \
	sub5(s, off+32);                   \
	reduceSmall;                       \
	store(d, doff, DI, R8, R9, R10);   \
	mulSmall(9, s, off+32);            \
	add5(s, off);                      \
	reduceSmall;                       \
	store(d, doff+32, DI, R8, R9, R10)

// copyE2 copies the pair at soff(s) to doff(d) through X0–X3.
#define copyE2(s, soff, d, doff) \
	MOVOU soff+0(s), X0;  \
	MOVOU soff+16(s), X1; \
	MOVOU soff+32(s), X2; \
	MOVOU soff+48(s), X3; \
	MOVOU X0, doff+0(d);  \
	MOVOU X1, doff+16(d); \
	MOVOU X2, doff+32(d); \
	MOVOU X3, doff+48(d)

// karaSet sets the accumulator pair at 0(BX) to karatsubaWide's products
// with the three products' pad, ac + 3q² − bd and s·s' − ac − bd; karaAcc
// adds ac − bd and s·s' − ac − bd. After j products the first Wide is
// 3q² + Σ(ac − bd), in (2q², 6q²), the value three MulAcc leave.
#define karaSet \
	load8(SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);                \
	op8(ADDQ, ADCQ, SB, q2x3<>, DI, R8, R9, R10, R11, R12, R13, R14); \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);     \
	store8(BX, 0, DI, R8, R9, R10, R11, R12, R13, R14);               \
	load8(SP, 160, DI, R8, R9, R10, R11, R12, R13, R14);              \
	op8(SUBQ, SBBQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);      \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);     \
	store8(BX, 64, DI, R8, R9, R10, R11, R12, R13, R14)

#define karaAcc \
	load8(BX, 0, DI, R8, R9, R10, R11, R12, R13, R14);              \
	op8(ADDQ, ADCQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);    \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);   \
	store8(BX, 0, DI, R8, R9, R10, R11, R12, R13, R14);             \
	load8(SP, 160, DI, R8, R9, R10, R11, R12, R13, R14);            \
	op8(SUBQ, SBBQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);    \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);   \
	op8(ADDQ, ADCQ, BX, 64, DI, R8, R9, R10, R11, R12, R13, R14);   \
	store8(BX, 64, DI, R8, R9, R10, R11, R12, R13, R14)

// e6Products runs the lazy products of n Fp6 blocks from blk(SP). Block m,
// at blk + 512m, holds the pairs ξx1, ξx2, x0, x1, x2, y0, y1, y2, so
// output k's product j is the x pair at 64(k − j) from x0 (ξx1 or ξx2 where
// k − j wraps) times y_j; output k accumulates its three products at
// acc + 128(3m + k) (≤ 6q² a Wide at the peak). The loop state is at st(SP):
// the block's x0, 64k, 64j, the accumulator and the blocks left. The labels
// are the block, output and product loops and the two ways to accumulate.
#define e6Products(lb, lk, lj, la, ln, n, blk, acc, st) \
	LEAQ blk+128(SP), AX;    \
	MOVQ AX, st+0(SP);       \
	LEAQ acc(SP), AX;        \
	MOVQ AX, st+24(SP);      \
	MOVQ $n, st+32(SP);      \
lb:                          \
	MOVQ $0, st+8(SP);       \
lk:                          \
	MOVQ $0, st+16(SP);      \
lj:                          \
	MOVQ st+0(SP), BX;       \
	MOVQ BX, SI;             \
	ADDQ st+8(SP), BX;       \
	SUBQ st+16(SP), BX;      \
	ADDQ st+16(SP), SI;      \
	ADDQ $192, SI;           \
	karatsubaWide(BX, SI);   \
	MOVQ st+24(SP), BX;      \
	CMPQ st+16(SP), $0;      \
	JNE  la;                 \
	karaSet;                 \
	JMP  ln;                 \
la:                          \
	karaAcc;                 \
ln:                          \
	ADDQ $64, st+16(SP);     \
	CMPQ st+16(SP), $192;    \
	JNE  lj;                 \
	ADDQ $128, st+24(SP);    \
	ADDQ $64, st+8(SP);      \
	CMPQ st+8(SP), $192;     \
	JNE  lk;                 \
	ADDQ $512, st+0(SP);     \
	DECQ st+32(SP);          \
	JNZ  lb

// reduceAll stores the REDC of each accumulator Wide, in turn, as a
// canonical element: the state at st(SP) is the next Wide, the next
// element and the count left. Three products leave a Wide ≤ 6q², so REDC
// lands below 2.14q and two conditional subtractions canonicalise it.
#define reduceAll(l, st) \
l:                                                      \
	MOVQ st+0(SP), AX;                                  \
	load8(AX, 0, DI, R8, R9, R10, R11, R12, R13, R14);  \
	redcWide;                                           \
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10);    \
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10);    \
	MOVQ st+8(SP), AX;                                  \
	store(AX, 0, R11, R12, R13, R14);                   \
	ADDQ $64, st+0(SP);                                 \
	ADDQ $32, st+8(SP);                                 \
	DECQ st+16(SP);                                     \
	JNZ  l

// func fpMulE6(z, x, y *[3]E2)
// MulE6 in one call: x and y copied into one e6Products block at 224(SP)
// beside ξ·x[1] and ξ·x[2], nine Karatsuba products accumulated three to
// an output coefficient at 736(SP), then six reductions into z. Every read
// of x and y precedes the first store, so z may alias either.
TEXT ·fpMulE6(SB), $1184-24
	MOVQ x+8(FP), SI
	copyE2(SI, 0, SP, 352)
	copyE2(SI, 64, SP, 416)
	copyE2(SI, 128, SP, 480)
	MOVQ y+16(FP), SI
	copyE2(SI, 0, SP, 544)
	copyE2(SI, 64, SP, 608)
	copyE2(SI, 128, SP, 672)
	xiTo(SP, 416, SP, 224)
	xiTo(SP, 480, SP, 288)
	e6Products(e6Block, e6Out, e6Prod, e6Acc, e6Next, 1, 224, 736, 1120)

	LEAQ 736(SP), AX
	MOVQ AX, 1160(SP)
	MOVQ z+0(FP), AX
	MOVQ AX, 1168(SP)
	MOVQ $6, 1176(SP)
	reduceAll(e6Reduce, 1160)
	RET

// sumE2 stores the pair at 0(p) plus the pair at 64(p) at doff(d).
// Clobbers CX, DX and R8–R13.
#define sumE2(p, d, doff) \
	load(p, 0, CX, DX, R8, R9);                         \
	addMod(p, 64, CX, DX, R8, R9, R10, R11, R12, R13);  \
	store(d, doff, CX, DX, R8, R9);                     \
	load(p, 32, CX, DX, R8, R9);                        \
	addMod(p, 96, CX, DX, R8, R9, R10, R11, R12, R13);  \
	store(d, doff+32, CX, DX, R8, R9)

// func fpMulE12(z, x, y *[6]E2)
// Fp12 multiplication in one call, Karatsuba over the Fp6 view: with
// x = a + b·w and y = c + d·w (a, c the even pairs), three e6Products
// blocks at 224(SP) multiply b·d, a·c and (a + b)(c + d), 27 lazy products
// in all, and 18 reductions store them at 2976(SP) as P2 = bd, P1 = ac and
// P3, after the slot at 2912(SP) that takes ξ·P2[2]. Then
// z[2k] = P1[k] + (v·P2)[k], where v·P2 = (ξ·P2[2], P2[0], P2[1]) sits
// at 2912 + 64k(SP), and z[2k + 1] = P3[k] − P1[k] − P2[k]. x and y are
// read only while the blocks are filled, so z may alias either.
TEXT ·fpMulE12(SB), $3616-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), BX
	LEAQ 224(SP), SI
	MOVQ $3, R14

e12Split:
	copyE2(AX, 64, SI, 128)
	copyE2(BX, 64, SI, 320)
	copyE2(AX, 0, SI, 640)
	copyE2(BX, 0, SI, 832)
	sumE2(AX, SI, 1152)
	sumE2(BX, SI, 1344)
	ADDQ $128, AX
	ADDQ $128, BX
	ADDQ $64, SI
	DECQ R14
	JNZ  e12Split

	LEAQ 224(SP), SI
	MOVQ $3, R14

e12Xi:
	xiTo(SI, 192, SI, 0)
	xiTo(SI, 256, SI, 64)
	ADDQ $512, SI
	DECQ R14
	JNZ  e12Xi

	e6Products(e12Block, e12Out, e12Prod, e12Acc, e12Next, 3, 224, 1760, 3552)

	LEAQ 1760(SP), AX
	MOVQ AX, 3592(SP)
	LEAQ 2976(SP), AX
	MOVQ AX, 3600(SP)
	MOVQ $18, 3608(SP)
	reduceAll(e12Reduce, 3592)

	xiTo(SP, 3104, SP, 2912)
	LEAQ 2912(SP), SI
	MOVQ z+0(FP), BX
	MOVQ $3, R14

e12Sum:
	load(SI, 256, CX, DX, R8, R9)
	addMod(SI, 0, CX, DX, R8, R9, R10, R11, R12, R13)
	store(BX, 0, CX, DX, R8, R9)
	load(SI, 288, CX, DX, R8, R9)
	addMod(SI, 32, CX, DX, R8, R9, R10, R11, R12, R13)
	store(BX, 32, CX, DX, R8, R9)
	load(SI, 448, CX, DX, R8, R9)
	subMod(SI, 256, CX, DX, R8, R9, R10, R11, R12, R13, AX)
	subMod(SI, 64, CX, DX, R8, R9, R10, R11, R12, R13, AX)
	store(BX, 64, CX, DX, R8, R9)
	load(SI, 480, CX, DX, R8, R9)
	subMod(SI, 288, CX, DX, R8, R9, R10, R11, R12, R13, AX)
	subMod(SI, 96, CX, DX, R8, R9, R10, R11, R12, R13, AX)
	store(BX, 96, CX, DX, R8, R9)
	ADDQ $64, SI
	ADDQ $128, BX
	DECQ R14
	JNZ  e12Sum
	RET

// func fpMulBySparse(z *[6]E2, c0, c1, c3 *E2)
// z·(c0 + c1·w + c3·w³) in one call, for c0 nil standing for 1 as well.
// The terms, (64j, c_j, ξ·c_j) for j = 0, 1, 3 at 352(SP) with ξ·c1 and
// ξ·c3 at 224(SP) and 288(SP), start at j = 1 when c0 is nil. Output k
// accumulates z[k − j mod 6] times c_j, or ξ·c_j where k − j wraps, for
// each term at 424 + 128k(SP): ≤ 6q² a Wide for three products, ≤ 5q² for
// two (the pad is 3q² either way). The twelve reductions then add z's own
// coefficient (c0 = 1) or the zero at 1192(SP): below 2.14q + 0 or
// 1.95q + q, canonical after two conditional subtractions. Every product
// precedes the first store into z.
TEXT ·fpMulBySparse(SB), $1296-32
	MOVQ c1+16(FP), SI
	xiTo(SI, 0, SP, 224)
	MOVQ c3+24(FP), SI
	xiTo(SI, 0, SP, 288)
	MOVQ c0+8(FP), AX
	MOVQ $0, 352(SP)
	MOVQ AX, 360(SP)
	MOVQ AX, 368(SP)
	MOVQ $64, 376(SP)
	MOVQ c1+16(FP), AX
	MOVQ AX, 384(SP)
	LEAQ 224(SP), AX
	MOVQ AX, 392(SP)
	MOVQ $192, 400(SP)
	MOVQ c3+24(FP), AX
	MOVQ AX, 408(SP)
	LEAQ 288(SP), AX
	MOVQ AX, 416(SP)
	LEAQ 352(SP), AX
	LEAQ 376(SP), BX
	MOVQ c0+8(FP), CX
	TESTQ CX, CX
	CMOVQEQ BX, AX
	MOVQ AX, 1224(SP)
	LEAQ 424(SP), AX
	MOVQ AX, 1248(SP)
	MOVQ $0, 1240(SP)

sparseOut:
	MOVQ 1224(SP), AX
	MOVQ AX, 1232(SP)

sparseProd:
	MOVQ    1232(SP), DX
	MOVQ    1240(SP), AX
	SUBQ    0(DX), AX
	MOVQ    8(DX), SI
	LEAQ    384(AX), CX
	TESTQ   AX, AX
	CMOVQLT CX, AX
	CMOVQLT 16(DX), SI
	MOVQ    z+0(FP), BX
	ADDQ    AX, BX
	karatsubaWide(BX, SI)
	MOVQ    1248(SP), BX
	MOVQ    1224(SP), AX
	CMPQ    1232(SP), AX
	JNE     sparseAcc
	karaSet
	JMP     sparseNext

sparseAcc:
	karaAcc

sparseNext:
	ADDQ    $24, 1232(SP)
	LEAQ    424(SP), AX
	CMPQ    1232(SP), AX
	JNE     sparseProd
	ADDQ    $128, 1248(SP)
	ADDQ    $64, 1240(SP)
	CMPQ    1240(SP), $384
	JNE     sparseOut

	PXOR    X0, X0
	MOVOU   X0, 1192(SP)
	MOVOU   X0, 1208(SP)
	LEAQ    424(SP), AX
	MOVQ    AX, 1256(SP)
	MOVQ    z+0(FP), AX
	MOVQ    AX, 1264(SP)
	LEAQ    1192(SP), BX
	MOVQ    $0, CX
	MOVQ    $32, DX
	MOVQ    c0+8(FP), SI
	TESTQ   SI, SI
	CMOVQEQ AX, BX
	CMOVQEQ DX, CX
	MOVQ    BX, 1272(SP)
	MOVQ    CX, 1280(SP)
	MOVQ    $12, 1288(SP)

sparseReduce:
	MOVQ 1256(SP), AX
	load8(AX, 0, DI, R8, R9, R10, R11, R12, R13, R14)
	redcWide
	MOVQ 1272(SP), AX
	op4(ADDQ, ADCQ, AX, 0, R11, R12, R13, R14)
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10)
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10)
	MOVQ 1264(SP), AX
	store(AX, 0, R11, R12, R13, R14)
	ADDQ $64, 1256(SP)
	ADDQ $32, 1264(SP)
	MOVQ 1280(SP), AX
	ADDQ AX, 1272(SP)
	DECQ 1288(SP)
	JNZ  sparseReduce
	RET
