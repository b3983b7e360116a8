//go:build amd64 && !purego

// BN254 Fp kernels for amd64. fpMul is a MULX/ADCX/ADOX interleaved
// CIOS Montgomery product (montMul: dual carry chains, one reduction step
// folded into each of the four multiply rounds). fpMulWide/fpReduceWide
// split the same arithmetic into its two halves for the lazy-reduction
// tower paths. fpAdd/fpSub/fpNeg/fpDouble are branch-free ADD/ADC +
// CMOV/mask sequences that run on every amd64, as do the Fp2 pair kernels
// fpAddE2/fpSubE2/fpDoubleE2/fpMulByXiE2 built from them; the MULX
// kernels, the Fp2 products fpMulE2/fpSquareE2/fpMulAccE2, the Fp6
// product fpMulE6 and the cyclotomic squaring fpCycSquare among them, are
// gated on the runtime ADX+BMI2 probe (cpuHasAdx) from fp_amd64.go.

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

// fpCycSquare's frame. Fp4 square j (j = 0, 1, 2 for A, B, C) of
// re + im·v, re = a0 + a1·i and im = b0 + b1·i, keeps six wide products at
// 384j(SP): R0 = (a0 + a1)(a0 − a1 + q) and R1 = 2a0·a1 (re²), I0 and I1
// (im², from canonical operands), S0 and S1 ((re + im)², from u = a0 + b0
// and v = a1 + b1 reduced). Its four reduced sums follow at 1152 + 128j(SP):
// re² + ξ·im² and 2re·im, the latter as S − R − I. 1536(SP) holds a product's
// second operand, 1568(SP) and 1600(SP) u and v, 1632(SP) the output sums'
// 2q − m1.

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

// fp4Wide sets block w to the six wide products of re + im·v for the x
// pairs at re(SI) and im(SI), every operand below 2q: R0, S0 < 4q²,
// R1, S1 < 2q², I0, I1 < q². Preserves SI.
#define fp4Wide(re, im, w) \
	load(SI, re, DI, R8, R9, R10);                               \
	op4(ADDQ, ADCQ, SB, q<>, DI, R8, R9, R10);                   \
	op4(SUBQ, SBBQ, SI, re+32, DI, R8, R9, R10);                 \
	store(SP, 1536, DI, R8, R9, R10);                            \
	load(SI, re, DI, R8, R9, R10);                               \
	op4(ADDQ, ADCQ, SI, re+32, DI, R8, R9, R10);                 \
	mulWide(SP, 1536, SP, w);                                    \
	load(SI, re, DI, R8, R9, R10);                               \
	ADDQ DI, DI;                                                 \
	ADCQ R8, R8;                                                 \
	ADCQ R9, R9;                                                 \
	ADCQ R10, R10;                                               \
	mulWide(SI, re+32, SP, w+64);                                \
	load(SI, im, DI, R8, R9, R10);                               \
	subMod(SI, im+32, DI, R8, R9, R10, R11, R12, R13, R14, CX);  \
	store(SP, 1536, DI, R8, R9, R10);                            \
	load(SI, im, DI, R8, R9, R10);                               \
	addMod(SI, im+32, DI, R8, R9, R10, R11, R12, R13, R14);      \
	mulWide(SP, 1536, SP, w+128);                                \
	load(SI, im, DI, R8, R9, R10);                               \
	doubleMod(DI, R8, R9, R10, R11, R12, R13, R14);              \
	mulWide(SI, im+32, SP, w+192);                               \
	load(SI, re, DI, R8, R9, R10);                               \
	addMod(SI, im, DI, R8, R9, R10, R11, R12, R13, R14);         \
	store(SP, 1568, DI, R8, R9, R10);                            \
	load(SI, re+32, DI, R8, R9, R10);                            \
	addMod(SI, im+32, DI, R8, R9, R10, R11, R12, R13, R14);      \
	store(SP, 1600, DI, R8, R9, R10);                            \
	load(SP, 1568, DI, R8, R9, R10);                             \
	op4(ADDQ, ADCQ, SB, q<>, DI, R8, R9, R10);                   \
	op4(SUBQ, SBBQ, SP, 1600, DI, R8, R9, R10);                  \
	store(SP, 1536, DI, R8, R9, R10);                            \
	load(SP, 1568, DI, R8, R9, R10);                             \
	op4(ADDQ, ADCQ, SP, 1600, DI, R8, R9, R10);                  \
	mulWide(SP, 1536, SP, w+256);                                \
	load(SP, 1568, DI, R8, R9, R10);                             \
	ADDQ DI, DI;                                                 \
	ADCQ R8, R8;                                                 \
	ADCQ R9, R9;                                                 \
	ADCQ R10, R10;                                               \
	mulWide(SP, 1600, SP, w+256+64)

// fp4Sums sets the four slots at o from block w, each one REDC of a wide sum
// (below (w/R + q), loose): re² + ξ·im² as R0 + 9I0 + q² − I1 < 14q²
// (< 3.65q reduced) and R1 + I0 + 9I1 < 12q², 2re·im as S0 + 5q² − R0 − I0
// < 9q² (< 2.7q) and S1 + 3q² − R1 − I1 < 5q² (< 1.95q). Clobbers SI.
#define fp4Sums(w, o) \
	load8(SP, w, DI, R8, R9, R10, R11, R12, R13, R14);                  \
	mulAdd8(9, SP, w+128);                   \
	op8(ADDQ, ADCQ, SB, q2<>, DI, R8, R9, R10, R11, R12, R13, R14);     \
	op8(SUBQ, SBBQ, SP, w+192, DI, R8, R9, R10, R11, R12, R13, R14);    \
	redcWide;                                \
	store(SP, o, R11, R12, R13, R14);        \
	load8(SP, w+64, DI, R8, R9, R10, R11, R12, R13, R14);               \
	op8(ADDQ, ADCQ, SP, w+128, DI, R8, R9, R10, R11, R12, R13, R14);    \
	mulAdd8(9, SP, w+192);                   \
	redcWide;                                \
	store(SP, o+32, R11, R12, R13, R14);     \
	load8(SP, w+256, DI, R8, R9, R10, R11, R12, R13, R14);              \
	op8(ADDQ, ADCQ, SB, q2x5<>, DI, R8, R9, R10, R11, R12, R13, R14);   \
	op8(SUBQ, SBBQ, SP, w, DI, R8, R9, R10, R11, R12, R13, R14);        \
	op8(SUBQ, SBBQ, SP, w+128, DI, R8, R9, R10, R11, R12, R13, R14);    \
	redcWide;                                \
	store(SP, o+64, R11, R12, R13, R14);     \
	load8(SP, w+320, DI, R8, R9, R10, R11, R12, R13, R14);              \
	op8(ADDQ, ADCQ, SB, q2x3<>, DI, R8, R9, R10, R11, R12, R13, R14);   \
	op8(SUBQ, SBBQ, SP, w+64, DI, R8, R9, R10, R11, R12, R13, R14);     \
	op8(SUBQ, SBBQ, SP, w+192, DI, R8, R9, R10, R11, R12, R13, R14);    \
	redcWide;                                \
	store(SP, o+96, R11, R12, R13, R14)

// storeZ stores the reduced t at off(z).
#define storeZ(off) \
	MOVQ z+0(FP), AX; \
	store(AX, off, DI, R8, R9, R10)

// reOut sets the pair at off(z) to 3s − 2X for the sums s at o and the x
// pair X at off(SI): 3s + 2q − 2X < 13q a coefficient.
#define reOut(o, off) \
	mulSmall(3, SP, o);   \
	add5(SB, twoQ<>);     \
	sub5(SI, off);        \
	sub5(SI, off);        \
	reduceSmall;          \
	storeZ(off);          \
	mulSmall(3, SP, o+32); \
	add5(SB, twoQ<>);     \
	sub5(SI, off+32);     \
	sub5(SI, off+32);     \
	reduceSmall;          \
	storeZ(off+32)

// imOut sets the pair at off(z) to 3s + 2X (< 11q a coefficient) for the
// sums s at o and the x pair X at off(SI).
#define imOut(o, off) \
	mulSmall(3, SP, o);    \
	add5(SI, off);         \
	add5(SI, off);         \
	reduceSmall;           \
	storeZ(off);           \
	mulSmall(3, SP, o+32); \
	add5(SI, off+32);      \
	add5(SI, off+32);      \
	reduceSmall;           \
	storeZ(off+32)

// func fpCycSquare(z, x *[6]E2)
// The Granger–Scott squaring in one call: each Fp4 square as six wide
// products and four reductions (fp4Wide, fp4Sums), then each of the twelve
// output coefficients as one small-multiple sum of those and of its own x
// coefficient, reduced once. The products read all of x before the first
// store, and output k reads only x[k] afterwards, so z may alias x.
TEXT ·fpCycSquare(SB), $1664-16
	MOVQ x+8(FP), SI
	fp4Wide(0, 192, 0)
	fp4Sums(0, 1152)
	MOVQ x+8(FP), SI
	fp4Wide(64, 256, 384)
	fp4Sums(384, 1280)
	MOVQ x+8(FP), SI
	fp4Wide(128, 320, 768)
	fp4Sums(768, 1408)
	MOVQ x+8(FP), SI

	// z[0] = 3A² − 2Ā and z[3], from A = x[0] + x[3]·v.
	reOut(1152, 0)
	imOut(1152+64, 192)

	// z[2] = 3B² − 2C̄ and z[5], from B = x[1] + x[4]·v.
	reOut(1280, 128)
	imOut(1280+64, 320)

	// z[4] = 3C² − ... and z[1] = 3v·C² + 2B̄, from C = x[2] + x[5]·v: v·C²
	// takes ξ on C²'s v part m, (9m0 − m1, m0 + 9m1), so z[1] is
	// 27m0 + 3(2q − m1) + 2X0 < 81q and 3m0 + 27m1 + 2X1 < 63q.
	reOut(1408, 256)
	MOVQ twoQ<>+0(SB), DI
	MOVQ twoQ<>+8(SB), R8
	MOVQ twoQ<>+16(SB), R9
	MOVQ twoQ<>+24(SB), R10
	op4(SUBQ, SBBQ, SP, 1408+96, DI, R8, R9, R10)
	store(SP, 1632, DI, R8, R9, R10)
	mulSmall(27, SP, 1408+64)
	mulSmallAdd(3, SP, 1632)
	add5(SI, 64)
	add5(SI, 64)
	reduceSmall
	storeZ(64)
	mulSmall(3, SP, 1408+64)
	mulSmallAdd(27, SP, 1408+96)
	add5(SI, 96)
	add5(SI, 96)
	reduceSmall
	storeZ(96)
	RET

// fpMulE6's frame: karatsubaWide's products at 0(SP), the three output
// coefficients' (c0, c1) accumulators at 224 + 128k(SP), ξ·x[1] and
// ξ·x[2] at 608(SP) and 672(SP), and y at 736(SP).

// xiTo sets the pair at dst(SP) to ξ times the pair (a, b) at off(SI):
// 9a + q − b and 9b + a, each below 10q, reduced once.
#define xiTo(off, dst) \
	mulSmall(9, SI, off);            \
	add5(SB, q<>);                   \
	sub5(SI, off+32);                \
	reduceSmall;                     \
	store(SP, dst, DI, R8, R9, R10); \
	mulSmall(9, SI, off+32);         \
	add5(SI, off);                   \
	reduceSmall;                     \
	store(SP, dst+32, DI, R8, R9, R10)

// karaFirst and karaNext run karatsubaWide for the pairs at BX and SI and,
// as MulAcc does, set or add to the accumulators at acc(SP): ac + q² − bd
// and s·s' − ac − bd.
#define karaFirst(acc) \
	karatsubaWide(BX, SI);                                                   \
	load8(SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);                       \
	op8(ADDQ, ADCQ, SB, q2<>, DI, R8, R9, R10, R11, R12, R13, R14);          \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);            \
	store8(SP, acc, DI, R8, R9, R10, R11, R12, R13, R14);                    \
	load8(SP, 160, DI, R8, R9, R10, R11, R12, R13, R14);                     \
	op8(SUBQ, SBBQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);             \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);            \
	store8(SP, acc+64, DI, R8, R9, R10, R11, R12, R13, R14)

#define karaNext(acc) \
	karatsubaWide(BX, SI);                                                   \
	load8(SP, acc, DI, R8, R9, R10, R11, R12, R13, R14);                     \
	op8(ADDQ, ADCQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);             \
	op8(ADDQ, ADCQ, SB, q2<>, DI, R8, R9, R10, R11, R12, R13, R14);          \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);            \
	store8(SP, acc, DI, R8, R9, R10, R11, R12, R13, R14);                    \
	load8(SP, 160, DI, R8, R9, R10, R11, R12, R13, R14);                     \
	op8(SUBQ, SBBQ, SP, 0, DI, R8, R9, R10, R11, R12, R13, R14);             \
	op8(SUBQ, SBBQ, SP, 64, DI, R8, R9, R10, R11, R12, R13, R14);            \
	op8(ADDQ, ADCQ, SP, acc+64, DI, R8, R9, R10, R11, R12, R13, R14);        \
	store8(SP, acc+64, DI, R8, R9, R10, R11, R12, R13, R14)

// xArg (xFrame) points BX at x's pair k (at off(SP)), yArg SI at y's
// pair k.
#define xArg(k) \
	MOVQ x+8(FP), BX; \
	LEAQ 64*k(BX), BX
#define xFrame(off) LEAQ off(SP), BX
#define yArg(k) \
	MOVQ 736(SP), SI; \
	LEAQ 64*k(SI), SI

// reduceTo stores REDC of the accumulator at acc(SP) at off(z): three
// products leave it ≤ 6q², so REDC lands below 2.14q and two conditional
// subtractions canonicalise it.
#define reduceTo(acc, off) \
	load8(SP, acc, DI, R8, R9, R10, R11, R12, R13, R14); \
	redcWide;                                            \
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10);     \
	reduceOnce(R11, R12, R13, R14, DI, R8, R9, R10);     \
	MOVQ z+0(FP), AX;                                    \
	store(AX, off, R11, R12, R13, R14)

// func fpMulE6(z, x, y *[3]E2)
// MulE6 in one call: ξ·x[1] and ξ·x[2] into the frame, nine Karatsuba
// products accumulated three to an output coefficient, six reductions.
// Every read of x and y precedes the first store, so z may alias either.
TEXT ·fpMulE6(SB), $744-24
	MOVQ y+16(FP), SI
	MOVQ SI, 736(SP)
	MOVQ x+8(FP), SI
	xiTo(64, 608)
	xiTo(128, 672)

	xArg(0)
	yArg(0)
	karaFirst(224)
	xFrame(608)
	yArg(2)
	karaNext(224)
	xFrame(672)
	yArg(1)
	karaNext(224)

	xArg(0)
	yArg(1)
	karaFirst(352)
	xArg(1)
	yArg(0)
	karaNext(352)
	xFrame(672)
	yArg(2)
	karaNext(352)

	xArg(0)
	yArg(2)
	karaFirst(480)
	xArg(1)
	yArg(1)
	karaNext(480)
	xArg(2)
	yArg(0)
	karaNext(480)

	reduceTo(224, 0)
	reduceTo(288, 32)
	reduceTo(352, 64)
	reduceTo(416, 96)
	reduceTo(480, 128)
	reduceTo(544, 160)
	RET
