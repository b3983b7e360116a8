//go:build amd64 && !purego

// BN254 Fp kernels for amd64. fpMul is a MULX/ADCX/ADOX interleaved
// CIOS Montgomery product (montMul: dual carry chains, one reduction step
// folded into each of the four multiply rounds). fpMulWide/fpReduceWide
// split the same arithmetic into its two halves for the lazy-reduction
// tower paths. fpAdd/fpSub/fpNeg/fpDouble are branch-free ADD/ADC +
// CMOV/mask sequences that run on every amd64, as do the Fp2 pair kernels
// fpAddE2/fpSubE2/fpDoubleE2/fpMulByXiE2 built from them; the MULX
// kernels, the Fp2 products fpMulE2/fpSquareE2/fpMulAccE2 among them, are
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
