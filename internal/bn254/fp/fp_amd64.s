//go:build amd64 && !purego

// BN254 Fp kernels for amd64. fpMul is a MULX/ADCX/ADOX interleaved
// CIOS Montgomery product (dual carry chains, one reduction step folded
// into each of the four multiply rounds; the no-carry optimisation
// applies because q's top limb is < 2^62). fpMulWide/fpReduceWide split
// the same arithmetic into its two halves for the lazy-reduction tower
// paths. fpAdd/fpSub/fpNeg/fpDouble are branch-free ADD/ADC + CMOV/mask
// sequences that run on every amd64, as do the Fp2 pair kernels
// fpAddE2/fpSubE2/fpDoubleE2/fpMulByXiE2 built from them; the MULX kernels,
// fpMulAccE2 among them, are gated on the runtime ADX+BMI2 probe
// (cpuHasAdx) from fp_amd64.go.

#include "textflag.h"

DATA q<>+0(SB)/8, $0x3c208c16d87cfd47
DATA q<>+8(SB)/8, $0x97816a916871ca8d
DATA q<>+16(SB)/8, $0xb85045b68181585d
DATA q<>+24(SB)/8, $0x30644e72e131a029
GLOBL q<>(SB), RODATA, $32

DATA qInvNeg<>+0(SB)/8, $0x87d20782e4866389
GLOBL qInvNeg<>(SB), RODATA, $8

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

// func fpMul(z, x, y *Element)
// Register plan: x limbs DI,R8,R9,R10 (loaded once); y scanned limb by
// limb through DX (MULX's implicit operand); running window t in
// R11..R14 with top limb CX; AX/BX scratch. Each round multiplies by
// one y limb (ADOX chain carries the lows, ADCX chain the highs) and
// then folds one Montgomery step m = t0·(-1/q) mod 2^64, t = (t+m·q)/2^64.
TEXT ·fpMul(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), SI
	MOVQ 0(AX), DI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10

	// round 0 multiply: t = x · y[0]
	XORQ  AX, AX
	MOVQ  0(SI), DX
	MULXQ DI, R11, R12
	MULXQ R8, AX, R13
	ADOXQ AX, R12
	MULXQ R9, AX, R14
	ADOXQ AX, R13
	MULXQ R10, AX, CX
	ADOXQ AX, R14
	MOVQ  $0, AX
	ADOXQ AX, CX

	// round 0 reduce
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R11, DX
	XORQ  AX, AX
	MULXQ q<>+0(SB), AX, BX
	ADCXQ R11, AX
	MOVQ  BX, R11
	ADCXQ R12, R11
	MULXQ q<>+8(SB), AX, R12
	ADOXQ AX, R11
	ADCXQ R13, R12
	MULXQ q<>+16(SB), AX, R13
	ADOXQ AX, R12
	ADCXQ R14, R13
	MULXQ q<>+24(SB), AX, R14
	ADOXQ AX, R13
	MOVQ  $0, AX
	ADCXQ CX, R14
	ADOXQ AX, R14

	// round 1 multiply: t += x · y[1]
	XORQ  AX, AX
	MOVQ  8(SI), DX
	MULXQ DI, AX, CX
	ADOXQ AX, R11
	ADCXQ CX, R12
	MULXQ R8, AX, CX
	ADOXQ AX, R12
	ADCXQ CX, R13
	MULXQ R9, AX, CX
	ADOXQ AX, R13
	ADCXQ CX, R14
	MULXQ R10, AX, CX
	ADOXQ AX, R14
	MOVQ  $0, AX
	ADCXQ AX, CX
	ADOXQ AX, CX

	// round 1 reduce
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R11, DX
	XORQ  AX, AX
	MULXQ q<>+0(SB), AX, BX
	ADCXQ R11, AX
	MOVQ  BX, R11
	ADCXQ R12, R11
	MULXQ q<>+8(SB), AX, R12
	ADOXQ AX, R11
	ADCXQ R13, R12
	MULXQ q<>+16(SB), AX, R13
	ADOXQ AX, R12
	ADCXQ R14, R13
	MULXQ q<>+24(SB), AX, R14
	ADOXQ AX, R13
	MOVQ  $0, AX
	ADCXQ CX, R14
	ADOXQ AX, R14

	// round 2 multiply: t += x · y[2]
	XORQ  AX, AX
	MOVQ  16(SI), DX
	MULXQ DI, AX, CX
	ADOXQ AX, R11
	ADCXQ CX, R12
	MULXQ R8, AX, CX
	ADOXQ AX, R12
	ADCXQ CX, R13
	MULXQ R9, AX, CX
	ADOXQ AX, R13
	ADCXQ CX, R14
	MULXQ R10, AX, CX
	ADOXQ AX, R14
	MOVQ  $0, AX
	ADCXQ AX, CX
	ADOXQ AX, CX

	// round 2 reduce
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R11, DX
	XORQ  AX, AX
	MULXQ q<>+0(SB), AX, BX
	ADCXQ R11, AX
	MOVQ  BX, R11
	ADCXQ R12, R11
	MULXQ q<>+8(SB), AX, R12
	ADOXQ AX, R11
	ADCXQ R13, R12
	MULXQ q<>+16(SB), AX, R13
	ADOXQ AX, R12
	ADCXQ R14, R13
	MULXQ q<>+24(SB), AX, R14
	ADOXQ AX, R13
	MOVQ  $0, AX
	ADCXQ CX, R14
	ADOXQ AX, R14

	// round 3 multiply: t += x · y[3]
	XORQ  AX, AX
	MOVQ  24(SI), DX
	MULXQ DI, AX, CX
	ADOXQ AX, R11
	ADCXQ CX, R12
	MULXQ R8, AX, CX
	ADOXQ AX, R12
	ADCXQ CX, R13
	MULXQ R9, AX, CX
	ADOXQ AX, R13
	ADCXQ CX, R14
	MULXQ R10, AX, CX
	ADOXQ AX, R14
	MOVQ  $0, AX
	ADCXQ AX, CX
	ADOXQ AX, CX

	// round 3 reduce
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R11, DX
	XORQ  AX, AX
	MULXQ q<>+0(SB), AX, BX
	ADCXQ R11, AX
	MOVQ  BX, R11
	ADCXQ R12, R11
	MULXQ q<>+8(SB), AX, R12
	ADOXQ AX, R11
	ADCXQ R13, R12
	MULXQ q<>+16(SB), AX, R13
	ADOXQ AX, R12
	ADCXQ R14, R13
	MULXQ q<>+24(SB), AX, R14
	ADOXQ AX, R13
	MOVQ  $0, AX
	ADCXQ CX, R14
	ADOXQ AX, R14

	// conditional subtract: z = t - q if t >= q
	MOVQ    R11, DI
	MOVQ    R12, R8
	MOVQ    R13, R9
	MOVQ    R14, R10
	SUBQ    q<>+0(SB), R11
	SBBQ    q<>+8(SB), R12
	SBBQ    q<>+16(SB), R13
	SBBQ    q<>+24(SB), R14
	CMOVQCS DI, R11
	CMOVQCS R8, R12
	CMOVQCS R9, R13
	CMOVQCS R10, R14
	MOVQ    z+0(FP), AX
	MOVQ    R11, 0(AX)
	MOVQ    R12, 8(AX)
	MOVQ    R13, 16(AX)
	MOVQ    R14, 24(AX)
	RET

// mulWide sets the eight limbs at doff(dst) to the full product of the x
// limbs in DI, R8, R9, R10 and the y limbs at yoff(yp): the multiply half
// of fpMul with the reduction left out. Four rows build the 512-bit
// product, storing the finished low limb of the window after each row and
// rotating the window (R11–R14, CX) down. Clobbers AX and DX.
#define mulWide(yp, yoff, dst, doff) \
	XORQ  CX, CX;              \
	MOVQ  yoff+0(yp), DX;      \
	MULXQ DI, R11, R12;        \
	MULXQ R8, AX, R13;         \
	ADOXQ AX, R12;             \
	MULXQ R9, AX, R14;         \
	ADOXQ AX, R13;             \
	MULXQ R10, AX, CX;         \
	ADOXQ AX, R14;             \
	MOVQ  $0, AX;              \
	ADOXQ AX, CX;              \
	MOVQ  R11, doff+0(dst);    \
	MOVQ  R12, R11;            \
	MOVQ  R13, R12;            \
	MOVQ  R14, R13;            \
	MOVQ  CX, R14;             \
	mulWideRow(yp, yoff+8);    \
	MOVQ  R11, doff+8(dst);    \
	MOVQ  R12, R11;            \
	MOVQ  R13, R12;            \
	MOVQ  R14, R13;            \
	MOVQ  CX, R14;             \
	mulWideRow(yp, yoff+16);   \
	MOVQ  R11, doff+16(dst);   \
	MOVQ  R12, R11;            \
	MOVQ  R13, R12;            \
	MOVQ  R14, R13;            \
	MOVQ  CX, R14;             \
	mulWideRow(yp, yoff+24);   \
	MOVQ  R11, doff+24(dst);   \
	MOVQ  R12, doff+32(dst);   \
	MOVQ  R13, doff+40(dst);   \
	MOVQ  R14, doff+48(dst);   \
	MOVQ  CX, doff+56(dst)

// mulWideRow adds x · (the y limb at off(yp)) into the window.
#define mulWideRow(yp, off) \
	XORQ  AX, AX;       \
	MOVQ  off(yp), DX;  \
	MULXQ DI, AX, CX;   \
	ADOXQ AX, R11;      \
	ADCXQ CX, R12;      \
	MULXQ R8, AX, CX;   \
	ADOXQ AX, R12;      \
	ADCXQ CX, R13;      \
	MULXQ R9, AX, CX;   \
	ADOXQ AX, R13;      \
	ADCXQ CX, R14;      \
	MULXQ R10, AX, CX;  \
	ADOXQ AX, R14;      \
	MOVQ  $0, AX;       \
	ADCXQ AX, CX;       \
	ADOXQ AX, CX

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

// func fpReduceWide(z *Element, w *Wide)
// Full-width REDC under the w < 4qR contract: each round adds m·q to
// zero the lowest live limb (the low product limb is -t0 by
// construction, so NEG recovers its carry without computing it) and
// ripples the carry to the top; the running value stays below
// 4qR + qR < 2^512. The < 5q result is canonicalised by four masked
// conditional-subtract passes.
TEXT ·fpReduceWide(SB), NOSPLIT, $0-16
	MOVQ w+8(FP), AX
	MOVQ 0(AX), DI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10
	MOVQ 32(AX), R11
	MOVQ 40(AX), R12
	MOVQ 48(AX), R13
	MOVQ 56(AX), R14

	// round 0: t += m·q, m = t0·qInvNeg; kills DI
	MOVQ  qInvNeg<>(SB), DX
	IMULQ DI, DX
	MULXQ q<>+0(SB), AX, BX
	MULXQ q<>+8(SB), AX, CX
	ADDQ  AX, BX
	MULXQ q<>+16(SB), AX, SI
	ADCQ  AX, CX
	MULXQ q<>+24(SB), AX, DX
	ADCQ  AX, SI
	ADCQ  $0, DX
	NEGQ  DI
	ADCQ  BX, R8
	ADCQ  CX, R9
	ADCQ  SI, R10
	ADCQ  DX, R11
	ADCQ  $0, R12
	ADCQ  $0, R13
	ADCQ  $0, R14

	// round 1: kills R8
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R8, DX
	MULXQ q<>+0(SB), AX, BX
	MULXQ q<>+8(SB), AX, CX
	ADDQ  AX, BX
	MULXQ q<>+16(SB), AX, SI
	ADCQ  AX, CX
	MULXQ q<>+24(SB), AX, DX
	ADCQ  AX, SI
	ADCQ  $0, DX
	NEGQ  R8
	ADCQ  BX, R9
	ADCQ  CX, R10
	ADCQ  SI, R11
	ADCQ  DX, R12
	ADCQ  $0, R13
	ADCQ  $0, R14

	// round 2: kills R9
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R9, DX
	MULXQ q<>+0(SB), AX, BX
	MULXQ q<>+8(SB), AX, CX
	ADDQ  AX, BX
	MULXQ q<>+16(SB), AX, SI
	ADCQ  AX, CX
	MULXQ q<>+24(SB), AX, DX
	ADCQ  AX, SI
	ADCQ  $0, DX
	NEGQ  R9
	ADCQ  BX, R10
	ADCQ  CX, R11
	ADCQ  SI, R12
	ADCQ  DX, R13
	ADCQ  $0, R14

	// round 3: kills R10
	MOVQ  qInvNeg<>(SB), DX
	IMULQ R10, DX
	MULXQ q<>+0(SB), AX, BX
	MULXQ q<>+8(SB), AX, CX
	ADDQ  AX, BX
	MULXQ q<>+16(SB), AX, SI
	ADCQ  AX, CX
	MULXQ q<>+24(SB), AX, DX
	ADCQ  AX, SI
	ADCQ  $0, DX
	NEGQ  R10
	ADCQ  BX, R11
	ADCQ  CX, R12
	ADCQ  SI, R13
	ADCQ  DX, R14

	// four masked conditional subtracts: u < 5q -> [0, q)
	MOVQ    R11, AX
	MOVQ    R12, BX
	MOVQ    R13, CX
	MOVQ    R14, SI
	SUBQ    q<>+0(SB), R11
	SBBQ    q<>+8(SB), R12
	SBBQ    q<>+16(SB), R13
	SBBQ    q<>+24(SB), R14
	CMOVQCS AX, R11
	CMOVQCS BX, R12
	CMOVQCS CX, R13
	CMOVQCS SI, R14

	MOVQ    R11, AX
	MOVQ    R12, BX
	MOVQ    R13, CX
	MOVQ    R14, SI
	SUBQ    q<>+0(SB), R11
	SBBQ    q<>+8(SB), R12
	SBBQ    q<>+16(SB), R13
	SBBQ    q<>+24(SB), R14
	CMOVQCS AX, R11
	CMOVQCS BX, R12
	CMOVQCS CX, R13
	CMOVQCS SI, R14

	MOVQ    R11, AX
	MOVQ    R12, BX
	MOVQ    R13, CX
	MOVQ    R14, SI
	SUBQ    q<>+0(SB), R11
	SBBQ    q<>+8(SB), R12
	SBBQ    q<>+16(SB), R13
	SBBQ    q<>+24(SB), R14
	CMOVQCS AX, R11
	CMOVQCS BX, R12
	CMOVQCS CX, R13
	CMOVQCS SI, R14

	MOVQ    R11, AX
	MOVQ    R12, BX
	MOVQ    R13, CX
	MOVQ    R14, SI
	SUBQ    q<>+0(SB), R11
	SBBQ    q<>+8(SB), R12
	SBBQ    q<>+16(SB), R13
	SBBQ    q<>+24(SB), R14
	CMOVQCS AX, R11
	CMOVQCS BX, R12
	CMOVQCS CX, R13
	CMOVQCS SI, R14

	MOVQ z+0(FP), AX
	MOVQ R11, 0(AX)
	MOVQ R12, 8(AX)
	MOVQ R13, 16(AX)
	MOVQ R14, 24(AX)
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

// func fpMulAccE2(c0, c1 *Wide, x, y *E2)
// MulAcc in one call: ac, bd, the loose sum s' = y.C0 + y.C1 and
// s·s' live in the frame (0, 64, 128 and 160(SP)); then
// c0 += ac + q² − bd and c1 += (s·s' − ac − bd), eight limbs at a time in
// BX, CX, DX, SI, DI, R8, R9, R10.
TEXT ·fpMulAccE2(SB), NOSPLIT, $224-32
	MOVQ x+16(FP), AX
	MOVQ y+24(FP), SI
	load(AX, 0, DI, R8, R9, R10)
	mulWide(SI, 0, SP, 0)
	MOVQ x+16(FP), AX
	load(AX, 32, DI, R8, R9, R10)
	mulWide(SI, 32, SP, 64)

	load(SI, 0, DI, R8, R9, R10)
	ADDQ 32(SI), DI
	ADCQ 40(SI), R8
	ADCQ 48(SI), R9
	ADCQ 56(SI), R10
	store(SP, 128, DI, R8, R9, R10)
	MOVQ x+16(FP), AX
	load(AX, 0, DI, R8, R9, R10)
	ADDQ 32(AX), DI
	ADCQ 40(AX), R8
	ADCQ 48(AX), R9
	ADCQ 56(AX), R10
	LEAQ 128(SP), SI
	mulWide(SI, 0, SP, 160)

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
