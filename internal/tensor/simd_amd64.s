#include "textflag.h"

// AVX2 bodies of the primitives in simd.go. Each vector lane carries one
// independent output element through exactly the scalar Go expression:
// products are rounded by VMULPD, sums by VADDPD, in the Go evaluation
// order, with the left operand of every Go addition as the first source.
// There is deliberately no FMA. Tails run the same expression with the
// scalar VEX forms.

// func axpy4AVX2(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64)
//
//	dst[t] += ((a0*p0[t] + a1*p1[t]) + a2*p2[t]) + a3*p3[t]
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	MOVQ         p0_base+56(FP), R8
	MOVQ         p1_base+80(FP), R9
	MOVQ         p2_base+104(FP), R10
	MOVQ         p3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

loop8:
	CMPQ    AX, DX
	JGE     tail4
	VMULPD  (R8)(AX*8), Y0, Y4
	VMULPD  32(R8)(AX*8), Y0, Y8
	VMULPD  (R9)(AX*8), Y1, Y5
	VMULPD  32(R9)(AX*8), Y1, Y9
	VADDPD  Y5, Y4, Y4
	VADDPD  Y9, Y8, Y8
	VMULPD  (R10)(AX*8), Y2, Y5
	VMULPD  32(R10)(AX*8), Y2, Y9
	VADDPD  Y5, Y4, Y4
	VADDPD  Y9, Y8, Y8
	VMULPD  (R11)(AX*8), Y3, Y5
	VMULPD  32(R11)(AX*8), Y3, Y9
	VADDPD  Y5, Y4, Y4
	VADDPD  Y9, Y8, Y8
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y9
	VADDPD  Y4, Y5, Y5
	VADDPD  Y8, Y9, Y9
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop8

tail4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JLT     tail1
	VMULPD  (R8)(AX*8), Y0, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (DI)(AX*8), Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX

tail1:
	CMPQ   AX, CX
	JGE    done
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD (DI)(AX*8), X5
	VADDSD X4, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    tail1

done:
	VZEROUPPER
	RET

// func dot4x4AVX2(g, p0, p1, p2, p3 []float64, s *[16]float64, w, gap int)
//
// Accumulator Yc holds column c; its lane r is row r's chain
// s += g[4t+r] * pc[t], starting at +0, t ascending over the span's rows
// of w steps; the gap steps between rows are skipped.
TEXT ·dot4x4AVX2(SB), NOSPLIT, $0-144
	MOVQ   g_base+0(FP), SI
	MOVQ   g_len+8(FP), CX
	SHRQ   $2, CX
	MOVQ   p0_base+24(FP), R8
	MOVQ   p1_base+48(FP), R9
	MOVQ   p2_base+72(FP), R10
	MOVQ   p3_base+96(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    dotdone

dotrow:
	MOVQ w+128(FP), DX

dotstep:
	VMOVUPD      (SI), Y4
	VBROADCASTSD (R8)(AX*8), Y5
	VBROADCASTSD (R9)(AX*8), Y6
	VBROADCASTSD (R10)(AX*8), Y7
	VBROADCASTSD (R11)(AX*8), Y8
	VMULPD       Y5, Y4, Y5
	VMULPD       Y6, Y4, Y6
	VMULPD       Y7, Y4, Y7
	VMULPD       Y8, Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, SI
	INCQ         AX
	DECQ         DX
	JNZ          dotstep

	// Step over the gap: gap positions in p, gap four-row groups in g.
	MOVQ gap+136(FP), DX
	ADDQ DX, AX
	SHLQ $5, DX
	ADDQ DX, SI
	CMPQ AX, CX
	JLT  dotrow

dotdone:
	MOVQ    s+120(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET

// Register-tiled conv row kernel. YMM lane l carries channel l of a block
// of four (output channels for ConvFwdPad, input channels for ConvDXPad),
// and Y0..Y7 hold up to eight consecutive output positions for the whole
// reduction. A term is one (offset, packed weight vector) pair: offs[i] is
// the element offset of term i's input from the position's base, and
// wpk[4i:4i+4] its weights, one per lane. A group of m terms updates
// every position p exactly as the scalar Go loops do:
//
//	acc[p] += ((W0*x0[p] + W1*x1[p]) + W2*x2[p]) + W3*x3[p]	(m = 4)
//
// with the shorter left-to-right expressions for m = 1..3, each input value
// broadcast to all four lanes. Products and sums are rounded by VMULPD and
// VADDPD in that order with the left Go operand as the first source, and
// there is no FMA.

// Position macros: one group of m terms for the position at byte offset
// off, accumulating into acc with temporaries t0 and t1. The group's
// inputs are at SI + 8*R8..R11 and its weights in Y8..Y11.
#define POS4(off, acc, t0, t1) \
	VBROADCASTSD off(SI)(R8*8), t0;  \
	VMULPD       t0, Y8, t0;         \
	VBROADCASTSD off(SI)(R9*8), t1;  \
	VMULPD       t1, Y9, t1;         \
	VADDPD       t1, t0, t0;         \
	VBROADCASTSD off(SI)(R10*8), t1; \
	VMULPD       t1, Y10, t1;        \
	VADDPD       t1, t0, t0;         \
	VBROADCASTSD off(SI)(R11*8), t1; \
	VMULPD       t1, Y11, t1;        \
	VADDPD       t1, t0, t0;         \
	VADDPD       t0, acc, acc

#define POS3(off, acc, t0, t1) \
	VBROADCASTSD off(SI)(R8*8), t0;  \
	VMULPD       t0, Y8, t0;         \
	VBROADCASTSD off(SI)(R9*8), t1;  \
	VMULPD       t1, Y9, t1;         \
	VADDPD       t1, t0, t0;         \
	VBROADCASTSD off(SI)(R10*8), t1; \
	VMULPD       t1, Y10, t1;        \
	VADDPD       t1, t0, t0;         \
	VADDPD       t0, acc, acc

#define POS2(off, acc, t0, t1) \
	VBROADCASTSD off(SI)(R8*8), t0; \
	VMULPD       t0, Y8, t0;        \
	VBROADCASTSD off(SI)(R9*8), t1; \
	VMULPD       t1, Y9, t1;        \
	VADDPD       t1, t0, t0;        \
	VADDPD       t0, acc, acc

#define POS1(off, acc, t0) \
	VBROADCASTSD off(SI)(R8*8), t0; \
	VMULPD       t0, Y8, t0;        \
	VADDPD       t0, acc, acc

// Group prologues: load the next m term offsets into R8.. and their
// weight vectors into Y8.., then advance DI and BX past them.
#define TERMS4 \
	MOVQ    (DI), R8;    \
	MOVQ    8(DI), R9;   \
	MOVQ    16(DI), R10; \
	MOVQ    24(DI), R11; \
	VMOVUPD (BX), Y8;    \
	VMOVUPD 32(BX), Y9;  \
	VMOVUPD 64(BX), Y10; \
	VMOVUPD 96(BX), Y11; \
	ADDQ    $32, DI;     \
	ADDQ    $128, BX

#define TERMS3 \
	MOVQ    (DI), R8;    \
	MOVQ    8(DI), R9;   \
	MOVQ    16(DI), R10; \
	VMOVUPD (BX), Y8;    \
	VMOVUPD 32(BX), Y9;  \
	VMOVUPD 64(BX), Y10; \
	ADDQ    $24, DI;     \
	ADDQ    $96, BX

#define TERMS2 \
	MOVQ    (DI), R8;   \
	MOVQ    8(DI), R9;  \
	VMOVUPD (BX), Y8;   \
	VMOVUPD 32(BX), Y9; \
	ADDQ    $16, DI;    \
	ADDQ    $64, BX

#define TERMS1 \
	MOVQ    (DI), R8; \
	VMOVUPD (BX), Y8; \
	ADDQ    $8, DI;   \
	ADDQ    $32, BX

// With reps > 0 a tile's accumulators live at 0..224(SP) while the
// registers hold the current sub-sums s: ACC adds one into its
// accumulator (acc = acc + s), and the tile loads them back to store.
#define ACC(j, y, t) \
	VMOVUPD j(SP), t; \
	VADDPD  y, t, t;  \
	VMOVUPD t, j(SP)

// TRANS4 turns four position vectors a..d (lane = channel) into four
// channel vectors (lane = position), in place: a gets channel 0.
#define TRANS4(a, b, c, d) \
	VUNPCKLPD  b, a, Y12;         \
	VUNPCKHPD  b, a, Y13;         \
	VUNPCKLPD  d, c, Y14;         \
	VUNPCKHPD  d, c, Y15;         \
	VPERM2F128 $0x20, Y14, Y12, a; \
	VPERM2F128 $0x20, Y15, Y13, b; \
	VPERM2F128 $0x31, Y14, Y12, c; \
	VPERM2F128 $0x31, Y15, Y13, d

// func convRowAVX2(x []float64, offs []int, wpk []float64, o0, o1, o2, o3 []float64, w, n4, m, nm, reps int)
//
// For each of the w positions p of one output row: with reps == 0,
// acc = +0, then n4 groups of four terms, then nm groups of m terms, and
// lane l of acc is stored to ol[p]. With reps > 0 the same pass (m = 1)
// runs reps times over consecutive terms, each from a +0 sub-sum that is
// then added to the accumulator, and the accumulator is stored. Lanes are
// stored 3, 2, 1, 0, so a lane row aliased to o0 is overwritten by lane 0.
TEXT ·convRowAVX2(SB), NOSPLIT, $256-208

// LANES points R8..R11 at output position AX of the four lane rows.
#define LANES \
	MOVQ o0_base+72(FP), R8;  \
	MOVQ o1_base+96(FP), R9;  \
	MOVQ o2_base+120(FP), R10; \
	MOVQ o3_base+144(FP), R11; \
	LEAQ (R8)(AX*8), R8;      \
	LEAQ (R9)(AX*8), R9;      \
	LEAQ (R10)(AX*8), R10;    \
	LEAQ (R11)(AX*8), R11

// TILE sets up a tile at position AX: SI at its inputs, DI and BX at the
// first term, R13 the sub-sum repetition count (0 = none).
#define TILE \
	MOVQ x_base+0(FP), SI;     \
	LEAQ (SI)(AX*8), SI;       \
	MOVQ offs_base+24(FP), DI; \
	MOVQ wpk_base+48(FP), BX;  \
	MOVQ reps+200(FP), R13

	MOVQ w+168(FP), R12
	XORQ AX, AX

next8:
	MOVQ R12, DX
	SUBQ AX, DX
	CMPQ DX, $8
	JLT  try4
	TILE
	TESTQ R13, R13
	JZ    t8rep
	VXORPD  Y0, Y0, Y0
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y0, 32(SP)
	VMOVUPD Y0, 64(SP)
	VMOVUPD Y0, 96(SP)
	VMOVUPD Y0, 128(SP)
	VMOVUPD Y0, 160(SP)
	VMOVUPD Y0, 192(SP)
	VMOVUPD Y0, 224(SP)

t8rep:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   n4+176(FP), CX
	TESTQ  CX, CX
	JZ     t8m

t8g4:
	TERMS4
	POS4(0, Y0, Y12, Y13)
	POS4(8, Y1, Y14, Y15)
	POS4(16, Y2, Y12, Y13)
	POS4(24, Y3, Y14, Y15)
	POS4(32, Y4, Y12, Y13)
	POS4(40, Y5, Y14, Y15)
	POS4(48, Y6, Y12, Y13)
	POS4(56, Y7, Y14, Y15)
	DECQ CX
	JNZ  t8g4

t8m:
	MOVQ  nm+192(FP), CX
	TESTQ CX, CX
	JZ    t8sum
	MOVQ  m+184(FP), DX
	CMPQ  DX, $2
	JEQ   t8g2
	JGT   t8g3

t8g1:
	TERMS1
	POS1(0, Y0, Y12)
	POS1(8, Y1, Y13)
	POS1(16, Y2, Y14)
	POS1(24, Y3, Y15)
	POS1(32, Y4, Y12)
	POS1(40, Y5, Y13)
	POS1(48, Y6, Y14)
	POS1(56, Y7, Y15)
	DECQ CX
	JNZ  t8g1
	JMP  t8sum

t8g2:
	TERMS2
	POS2(0, Y0, Y12, Y13)
	POS2(8, Y1, Y14, Y15)
	POS2(16, Y2, Y12, Y13)
	POS2(24, Y3, Y14, Y15)
	POS2(32, Y4, Y12, Y13)
	POS2(40, Y5, Y14, Y15)
	POS2(48, Y6, Y12, Y13)
	POS2(56, Y7, Y14, Y15)
	DECQ CX
	JNZ  t8g2
	JMP  t8sum

t8g3:
	TERMS3
	POS3(0, Y0, Y12, Y13)
	POS3(8, Y1, Y14, Y15)
	POS3(16, Y2, Y12, Y13)
	POS3(24, Y3, Y14, Y15)
	POS3(32, Y4, Y12, Y13)
	POS3(40, Y5, Y14, Y15)
	POS3(48, Y6, Y12, Y13)
	POS3(56, Y7, Y14, Y15)
	DECQ CX
	JNZ  t8g3

t8sum:
	TESTQ R13, R13
	JZ    t8store
	ACC(0, Y0, Y12)
	ACC(32, Y1, Y13)
	ACC(64, Y2, Y14)
	ACC(96, Y3, Y15)
	ACC(128, Y4, Y12)
	ACC(160, Y5, Y13)
	ACC(192, Y6, Y14)
	ACC(224, Y7, Y15)
	DECQ    R13
	JNZ     t8rep
	VMOVUPD 0(SP), Y0
	VMOVUPD 32(SP), Y1
	VMOVUPD 64(SP), Y2
	VMOVUPD 96(SP), Y3
	VMOVUPD 128(SP), Y4
	VMOVUPD 160(SP), Y5
	VMOVUPD 192(SP), Y6
	VMOVUPD 224(SP), Y7

t8store:
	LANES
	TRANS4(Y0, Y1, Y2, Y3)
	TRANS4(Y4, Y5, Y6, Y7)
	VMOVUPD Y3, (R11)
	VMOVUPD Y7, 32(R11)
	VMOVUPD Y2, (R10)
	VMOVUPD Y6, 32(R10)
	VMOVUPD Y1, (R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y0, (R8)
	VMOVUPD Y4, 32(R8)
	ADDQ    $8, AX
	JMP     next8

try4:
	CMPQ DX, $4
	JLT  try1
	TILE
	TESTQ R13, R13
	JZ    t4rep
	VXORPD  Y0, Y0, Y0
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y0, 32(SP)
	VMOVUPD Y0, 64(SP)
	VMOVUPD Y0, 96(SP)

t4rep:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   n4+176(FP), CX
	TESTQ  CX, CX
	JZ     t4m

t4g4:
	TERMS4
	POS4(0, Y0, Y12, Y13)
	POS4(8, Y1, Y14, Y15)
	POS4(16, Y2, Y12, Y13)
	POS4(24, Y3, Y14, Y15)
	DECQ CX
	JNZ  t4g4

t4m:
	MOVQ  nm+192(FP), CX
	TESTQ CX, CX
	JZ    t4sum
	MOVQ  m+184(FP), DX
	CMPQ  DX, $2
	JEQ   t4g2
	JGT   t4g3

t4g1:
	TERMS1
	POS1(0, Y0, Y12)
	POS1(8, Y1, Y13)
	POS1(16, Y2, Y14)
	POS1(24, Y3, Y15)
	DECQ CX
	JNZ  t4g1
	JMP  t4sum

t4g2:
	TERMS2
	POS2(0, Y0, Y12, Y13)
	POS2(8, Y1, Y14, Y15)
	POS2(16, Y2, Y12, Y13)
	POS2(24, Y3, Y14, Y15)
	DECQ CX
	JNZ  t4g2
	JMP  t4sum

t4g3:
	TERMS3
	POS3(0, Y0, Y12, Y13)
	POS3(8, Y1, Y14, Y15)
	POS3(16, Y2, Y12, Y13)
	POS3(24, Y3, Y14, Y15)
	DECQ CX
	JNZ  t4g3

t4sum:
	TESTQ R13, R13
	JZ    t4store
	ACC(0, Y0, Y12)
	ACC(32, Y1, Y13)
	ACC(64, Y2, Y14)
	ACC(96, Y3, Y15)
	DECQ    R13
	JNZ     t4rep
	VMOVUPD 0(SP), Y0
	VMOVUPD 32(SP), Y1
	VMOVUPD 64(SP), Y2
	VMOVUPD 96(SP), Y3

t4store:
	LANES
	TRANS4(Y0, Y1, Y2, Y3)
	VMOVUPD Y3, (R11)
	VMOVUPD Y2, (R10)
	VMOVUPD Y1, (R9)
	VMOVUPD Y0, (R8)
	ADDQ    $4, AX

try1:
	CMPQ AX, R12
	JGE  rowdone
	TILE
	TESTQ  R13, R13
	JZ     t1rep
	VXORPD Y0, Y0, Y0
	VMOVUPD Y0, 0(SP)

t1rep:
	VXORPD Y0, Y0, Y0
	MOVQ   n4+176(FP), CX
	TESTQ  CX, CX
	JZ     t1m

t1g4:
	TERMS4
	POS4(0, Y0, Y12, Y13)
	DECQ CX
	JNZ  t1g4

t1m:
	MOVQ  nm+192(FP), CX
	TESTQ CX, CX
	JZ    t1sum
	MOVQ  m+184(FP), DX
	CMPQ  DX, $2
	JEQ   t1g2
	JGT   t1g3

t1g1:
	TERMS1
	POS1(0, Y0, Y12)
	DECQ CX
	JNZ  t1g1
	JMP  t1sum

t1g2:
	TERMS2
	POS2(0, Y0, Y12, Y13)
	DECQ CX
	JNZ  t1g2
	JMP  t1sum

t1g3:
	TERMS3
	POS3(0, Y0, Y12, Y13)
	DECQ CX
	JNZ  t1g3

t1sum:
	TESTQ R13, R13
	JZ    t1store
	ACC(0, Y0, Y12)
	DECQ    R13
	JNZ     t1rep
	VMOVUPD 0(SP), Y0

t1store:
	LANES
	VEXTRACTF128 $1, Y0, X12
	VMOVHPD      X12, (R11)
	VMOVSD       X12, (R10)
	VMOVHPD      X0, (R9)
	VMOVSD       X0, (R8)
	INCQ         AX
	JMP          try1

rowdone:
	VZEROUPPER
	RET

// func dwTileAVX2(g, x []float64, offs []int, c []float64, ldc, w, gap int)
//
// ConvDWPad's register tile: dot4x4 over eight columns, column j reading
// x[offs[j]+t], accumulated into a 4×8 block of the weight gradient.
// Accumulator Yj holds column j; its lane r is row r's chain
// s += g[4t+r] * x[offs[j]+t], starting at +0, t ascending. The span is
// rows of w steps separated by gap steps whose g entries are zero; those
// terms would add ±0 to a chain that cannot hold -0, so the tile skips
// them. Eight independent chains keep the multipliers and adders busy
// where dot4x4's four wait on each other. At the end TRANS4 turns the
// columns into rows and c[r*ldc+j] += s for rows r = 0..3 and columns
// j = 0..7. The caller guarantees offs[j]+len(g)/4 ≤ len(x) and
// 3*ldc+8 ≤ len(c).
TEXT ·dwTileAVX2(SB), NOSPLIT, $0-120
	MOVQ   g_base+0(FP), SI
	MOVQ   g_len+8(FP), CX
	SHRQ   $2, CX
	MOVQ   x_base+24(FP), AX
	MOVQ   offs_base+48(FP), DI
	MOVQ   (DI), R8
	MOVQ   8(DI), R9
	MOVQ   16(DI), R10
	MOVQ   24(DI), R11
	MOVQ   32(DI), R12
	MOVQ   40(DI), R13
	MOVQ   48(DI), BX
	MOVQ   56(DI), DX
	LEAQ   (AX)(R8*8), R8
	LEAQ   (AX)(R9*8), R9
	LEAQ   (AX)(R10*8), R10
	LEAQ   (AX)(R11*8), R11
	LEAQ   (AX)(R12*8), R12
	LEAQ   (AX)(R13*8), R13
	LEAQ   (AX)(BX*8), BX
	LEAQ   (AX)(DX*8), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    dwsum

// DWSTEP multiplies the four-row g vector at goff(SI) by the eight
// columns' inputs at step AX (plus xoff bytes) and adds each product to
// its column's accumulator.
#define DWSTEP(goff, xoff) \
	VMOVUPD      goff(SI), Y8;          \
	VBROADCASTSD xoff(R8)(AX*8), Y9;    \
	VBROADCASTSD xoff(R9)(AX*8), Y10;   \
	VBROADCASTSD xoff(R10)(AX*8), Y11;  \
	VBROADCASTSD xoff(R11)(AX*8), Y12;  \
	VMULPD       Y9, Y8, Y9;            \
	VMULPD       Y10, Y8, Y10;          \
	VMULPD       Y11, Y8, Y11;          \
	VMULPD       Y12, Y8, Y12;          \
	VADDPD       Y9, Y0, Y0;            \
	VADDPD       Y10, Y1, Y1;           \
	VADDPD       Y11, Y2, Y2;           \
	VADDPD       Y12, Y3, Y3;           \
	VBROADCASTSD xoff(R12)(AX*8), Y13;  \
	VBROADCASTSD xoff(R13)(AX*8), Y14;  \
	VBROADCASTSD xoff(BX)(AX*8), Y15;   \
	VBROADCASTSD xoff(DX)(AX*8), Y9;    \
	VMULPD       Y13, Y8, Y13;          \
	VMULPD       Y14, Y8, Y14;          \
	VMULPD       Y15, Y8, Y15;          \
	VMULPD       Y9, Y8, Y9;            \
	VADDPD       Y13, Y4, Y4;           \
	VADDPD       Y14, Y5, Y5;           \
	VADDPD       Y15, Y6, Y6;           \
	VADDPD       Y9, Y7, Y7

// Each row runs its w steps two at a time, then an odd last one.
dwrow:
	MOVQ w+104(FP), DI
	SHRQ $1, DI
	JZ   dwodd

dwpair:
	DWSTEP(0, 0)
	DWSTEP(32, 8)
	ADDQ $64, SI
	ADDQ $2, AX
	DECQ DI
	JNZ  dwpair

dwodd:
	MOVQ  w+104(FP), DI
	ANDQ  $1, DI
	JZ    dwgap
	DWSTEP(0, 0)
	ADDQ  $32, SI
	INCQ  AX

	// Step over the gap: gap positions in x, gap four-row groups in g.
dwgap:
	MOVQ gap+112(FP), DI
	ADDQ DI, AX
	SHLQ $5, DI
	ADDQ DI, SI
	CMPQ AX, CX
	JLT  dwrow

dwsum:
	TRANS4(Y0, Y1, Y2, Y3)
	TRANS4(Y4, Y5, Y6, Y7)
	MOVQ c_base+72(FP), DI
	MOVQ ldc+96(FP), DX
	SHLQ $3, DX

// ROWACC adds row vectors lo (columns 0..3) and hi (4..7) into the row at
// DI, then steps DI to the next row: c[j] + s, c the first source.
#define ROWACC(lo, hi) \
	VMOVUPD (DI), Y8;    \
	VMOVUPD 32(DI), Y9;  \
	VADDPD  lo, Y8, Y8;  \
	VADDPD  hi, Y9, Y9;  \
	VMOVUPD Y8, (DI);    \
	VMOVUPD Y9, 32(DI);  \
	ADDQ    DX, DI

	ROWACC(Y0, Y4)
	ROWACC(Y1, Y5)
	ROWACC(Y2, Y6)
	ROWACC(Y3, Y7)
	VZEROUPPER
	RET

// AVX-512F conv plane kernel. Its ZMM lanes are output positions, not
// channels: a chunk is eight consecutive output positions of one row, and
// a tile holds two chunks of up to four channels (output channels for
// ConvFwdPad, input channels for ConvDXPad) in Z0..Z7, channel c and
// chunk p in Z(2c+p), for the whole reduction. A term is one (offset,
// weight) pair per channel: every position of a chunk reads its term
// input at the same offset from its own base, so the chunk's eight inputs
// are one load, and each channel's weight is an embedded broadcast. A
// group of m terms updates every position p exactly as the scalar Go
// loops do:
//
//	acc[p] += ((W0*x0[p] + W1*x1[p]) + W2*x2[p]) + W3*x3[p]	(m = 4)
//
// with the shorter left-to-right expressions for m = 1..3. Products are
// rounded by VMULPD and sums by VADDPD in that order, with the running
// sum as the first source of every addition, and there is no FMA. A row
// whose width is not a multiple of eight ends in a chunk shifted back to
// end at the row's last position, so it recomputes up to seven positions
// of the chunk before it — the same chains on the same operands, stored
// again with the same bits — and no load or store leaves the row.

// Group loads: the next m term offsets, from the table at DI, into R8..,
// and term i's inputs for chunk p (chunk A at SI, chunk B at DX) into
// Z(8+2i+p).
#define ZL4 \
	MOVQ 0(DI), R8; \
	MOVQ 8(DI), R9; \
	MOVQ 16(DI), R10; \
	MOVQ 24(DI), R11; \
	VMOVUPD (SI)(R8*8), Z8; \
	VMOVUPD (DX)(R8*8), Z9; \
	VMOVUPD (SI)(R9*8), Z10; \
	VMOVUPD (DX)(R9*8), Z11; \
	VMOVUPD (SI)(R10*8), Z12; \
	VMOVUPD (DX)(R10*8), Z13; \
	VMOVUPD (SI)(R11*8), Z14; \
	VMOVUPD (DX)(R11*8), Z15

#define ZL3 \
	MOVQ 0(DI), R8; \
	MOVQ 8(DI), R9; \
	MOVQ 16(DI), R10; \
	VMOVUPD (SI)(R8*8), Z8; \
	VMOVUPD (DX)(R8*8), Z9; \
	VMOVUPD (SI)(R9*8), Z10; \
	VMOVUPD (DX)(R9*8), Z11; \
	VMOVUPD (SI)(R10*8), Z12; \
	VMOVUPD (DX)(R10*8), Z13

#define ZL2 \
	MOVQ 0(DI), R8; \
	MOVQ 8(DI), R9; \
	VMOVUPD (SI)(R8*8), Z8; \
	VMOVUPD (DX)(R8*8), Z9; \
	VMOVUPD (SI)(R9*8), Z10; \
	VMOVUPD (DX)(R9*8), Z11

#define ZL1 \
	MOVQ 0(DI), R8; \
	VMOVUPD (SI)(R8*8), Z8; \
	VMOVUPD (DX)(R8*8), Z9

// Unit macros: one group of m terms for one channel and chunk. W points
// at the channel's weights for the group; x0.. are the chunk's inputs; t0
// and t1 are temporaries. The weights are addressed without an index
// register, which would split each VMULPD into two uops.
#define ZU4(W, x0, x1, x2, x3, acc, t0, t1) \
	VMULPD.BCST 0(W), x0, t0;  \
	VMULPD.BCST 8(W), x1, t1;  \
	VADDPD      t1, t0, t0;           \
	VMULPD.BCST 16(W), x2, t1; \
	VADDPD      t1, t0, t0;           \
	VMULPD.BCST 24(W), x3, t1; \
	VADDPD      t1, t0, t0;           \
	VADDPD      t0, acc, acc

#define ZU3(W, x0, x1, x2, acc, t0, t1) \
	VMULPD.BCST 0(W), x0, t0;  \
	VMULPD.BCST 8(W), x1, t1;  \
	VADDPD      t1, t0, t0;           \
	VMULPD.BCST 16(W), x2, t1; \
	VADDPD      t1, t0, t0;           \
	VADDPD      t0, acc, acc

#define ZU2(W, x0, x1, acc, t0, t1) \
	VMULPD.BCST 0(W), x0, t0; \
	VMULPD.BCST 8(W), x1, t1; \
	VADDPD      t1, t0, t0;          \
	VADDPD      t0, acc, acc

#define ZU1(W, x0, acc, t0) \
	VMULPD.BCST 0(W), x0, t0; \
	VADDPD      t0, acc, acc

// func convPlaneAVX512(x []float64, offs []int, wts, dst []float64, wstride, dstride, nc, h, w, wp, n4, m, nm, reps int)
//
// For every output position of an h×w plane (w ≥ 8) whose input rows
// start wp apart in x, and each channel c < nc: with reps == 0, acc = +0,
// then n4 groups of four terms, then nm groups of m terms, and acc is
// stored to dst[c*dstride+oy*w+ox]. Term i's input is at offs[i] from the
// position's base, and channel c's weight for it is wts[c*wstride+i].
// With reps > 0 the same pass (m = 1) runs reps times over consecutive
// terms, each from a +0 sub-sum in Z0..Z7 that is then added to the
// accumulator in Z24..Z31, and the accumulator is stored. The chunks are
// taken two at a time in row-major order, so a tile may span two rows;
// an odd last chunk is computed twice, as both chunks of its tile.
TEXT ·convPlaneAVX512(SB), NOSPLIT, $64-176

// The chunk walker's state lives in the frame: 0(SP) the input offset and
// 8(SP) the output offset of the next chunk's first position, 16(SP) the
// positions left in its row, 24(SP) wp-w, 32(SP) the chunks left; 40(SP)
// and 48(SP) hold the current tile's two output offsets and 56(SP) its
// sub-sum repetitions left.
// ZCHUNK takes the next chunk, its input offset into inR and output
// offset into outR, and advances the walker: eight positions on, or to
// the next row at a row's end, where a chunk of n < 8 positions starts
// 8-n positions back. Clobbers AX, CX, R9 and R10.
#define ZCHUNK(inR, outR) \
	MOVQ    0(SP), inR;     \
	MOVQ    8(SP), outR;    \
	MOVQ    16(SP), AX;     \
	MOVQ    $8, CX;         \
	CMPQ    AX, CX;         \
	CMOVQLT AX, CX;         \
	ADDQ    CX, inR;        \
	ADDQ    CX, outR;       \
	SUBQ    $8, inR;        \
	SUBQ    $8, outR;       \
	ADDQ    CX, 0(SP);      \
	ADDQ    CX, 8(SP);      \
	XORL    R9, R9;         \
	MOVQ    24(SP), R10;    \
	SUBQ    CX, AX;         \
	CMOVQEQ R10, R9;        \
	MOVQ    w+128(FP), R10; \
	CMOVQEQ R10, AX;        \
	MOVQ    AX, 16(SP);     \
	ADDQ    R9, 0(SP)

	MOVQ  w+128(FP), AX
	MOVQ  AX, 16(SP)
	MOVQ  wp+136(FP), CX
	SUBQ  AX, CX
	MOVQ  CX, 24(SP)
	MOVQ  $0, 0(SP)
	MOVQ  $0, 8(SP)
	ADDQ  $7, AX
	SHRQ  $3, AX
	IMULQ h+120(FP), AX
	MOVQ  AX, 32(SP)

ztile:
	CMPQ 32(SP), $0
	JEQ  zdone
	ZCHUNK(SI, R8)
	MOVQ R8, 40(SP)
	MOVQ R8, 48(SP)
	MOVQ SI, DX
	DECQ 32(SP)
	JZ   zgo
	ZCHUNK(DX, R8)
	MOVQ R8, 48(SP)
	DECQ 32(SP)

	// Point SI and DX at the chunks' inputs and BX, AX, R13 and R15 at
	// channels 0..3's first weights. Each group advances them and DI.
zgo:
	MOVQ   x_base+0(FP), AX
	LEAQ   (AX)(SI*8), SI
	LEAQ   (AX)(DX*8), DX
	MOVQ   offs_base+24(FP), DI
	MOVQ   wts_base+48(FP), BX
	MOVQ   wstride+96(FP), R8
	SHLQ   $3, R8
	LEAQ   (BX)(R8*1), AX
	LEAQ   (AX)(R8*1), R13
	LEAQ   (R13)(R8*1), R15
	MOVQ   reps+168(FP), R8
	MOVQ   R8, 56(SP)
	TESTQ  R8, R8
	JZ     zrep
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31

zrep:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   n4+144(FP), CX
	TESTQ  CX, CX
	JZ     zm

	// Each group loop runs channel 0's units, then each further channel's
	// while c < nc.
zg4:
	ZL4
	ZU4(BX, Z8, Z10, Z12, Z14, Z0, Z16, Z17)
	ZU4(BX, Z9, Z11, Z13, Z15, Z1, Z18, Z19)
	CMPQ nc+112(FP), $1
	JEQ  zg4n
	ZU4(AX, Z8, Z10, Z12, Z14, Z2, Z20, Z21)
	ZU4(AX, Z9, Z11, Z13, Z15, Z3, Z22, Z23)
	CMPQ nc+112(FP), $2
	JEQ  zg4n
	ZU4(R13, Z8, Z10, Z12, Z14, Z4, Z16, Z17)
	ZU4(R13, Z9, Z11, Z13, Z15, Z5, Z18, Z19)
	CMPQ nc+112(FP), $3
	JEQ  zg4n
	ZU4(R15, Z8, Z10, Z12, Z14, Z6, Z20, Z21)
	ZU4(R15, Z9, Z11, Z13, Z15, Z7, Z22, Z23)
zg4n:
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, AX
	ADDQ $32, R13
	ADDQ $32, R15
	DECQ CX
	JNZ  zg4

zm:
	MOVQ  nm+160(FP), CX
	TESTQ CX, CX
	JZ    zsum
	CMPQ  m+152(FP), $2
	JEQ   zg2
	JGT   zg3

zg1:
	ZL1
	ZU1(BX, Z8, Z0, Z16)
	ZU1(BX, Z9, Z1, Z18)
	CMPQ nc+112(FP), $1
	JEQ  zg1n
	ZU1(AX, Z8, Z2, Z20)
	ZU1(AX, Z9, Z3, Z22)
	CMPQ nc+112(FP), $2
	JEQ  zg1n
	ZU1(R13, Z8, Z4, Z16)
	ZU1(R13, Z9, Z5, Z18)
	CMPQ nc+112(FP), $3
	JEQ  zg1n
	ZU1(R15, Z8, Z6, Z20)
	ZU1(R15, Z9, Z7, Z22)
zg1n:
	ADDQ $8, DI
	ADDQ $8, BX
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ $8, R15
	DECQ CX
	JNZ  zg1
	JMP  zsum

zg2:
	ZL2
	ZU2(BX, Z8, Z10, Z0, Z16, Z17)
	ZU2(BX, Z9, Z11, Z1, Z18, Z19)
	CMPQ nc+112(FP), $1
	JEQ  zg2n
	ZU2(AX, Z8, Z10, Z2, Z20, Z21)
	ZU2(AX, Z9, Z11, Z3, Z22, Z23)
	CMPQ nc+112(FP), $2
	JEQ  zg2n
	ZU2(R13, Z8, Z10, Z4, Z16, Z17)
	ZU2(R13, Z9, Z11, Z5, Z18, Z19)
	CMPQ nc+112(FP), $3
	JEQ  zg2n
	ZU2(R15, Z8, Z10, Z6, Z20, Z21)
	ZU2(R15, Z9, Z11, Z7, Z22, Z23)
zg2n:
	ADDQ $16, DI
	ADDQ $16, BX
	ADDQ $16, AX
	ADDQ $16, R13
	ADDQ $16, R15
	DECQ CX
	JNZ  zg2
	JMP  zsum

zg3:
	ZL3
	ZU3(BX, Z8, Z10, Z12, Z0, Z16, Z17)
	ZU3(BX, Z9, Z11, Z13, Z1, Z18, Z19)
	CMPQ nc+112(FP), $1
	JEQ  zg3n
	ZU3(AX, Z8, Z10, Z12, Z2, Z20, Z21)
	ZU3(AX, Z9, Z11, Z13, Z3, Z22, Z23)
	CMPQ nc+112(FP), $2
	JEQ  zg3n
	ZU3(R13, Z8, Z10, Z12, Z4, Z16, Z17)
	ZU3(R13, Z9, Z11, Z13, Z5, Z18, Z19)
	CMPQ nc+112(FP), $3
	JEQ  zg3n
	ZU3(R15, Z8, Z10, Z12, Z6, Z20, Z21)
	ZU3(R15, Z9, Z11, Z13, Z7, Z22, Z23)
zg3n:
	ADDQ $24, DI
	ADDQ $24, BX
	ADDQ $24, AX
	ADDQ $24, R13
	ADDQ $24, R15
	DECQ CX
	JNZ  zg3

zsum:
	CMPQ    56(SP), $0
	JEQ     zstore
	VADDPD  Z0, Z24, Z24
	VADDPD  Z1, Z25, Z25
	VADDPD  Z2, Z26, Z26
	VADDPD  Z3, Z27, Z27
	VADDPD  Z4, Z28, Z28
	VADDPD  Z5, Z29, Z29
	VADDPD  Z6, Z30, Z30
	VADDPD  Z7, Z31, Z31
	DECQ    56(SP)
	JNZ     zrep
	VMOVAPD Z24, Z0
	VMOVAPD Z25, Z1
	VMOVAPD Z26, Z2
	VMOVAPD Z27, Z3
	VMOVAPD Z28, Z4
	VMOVAPD Z29, Z5
	VMOVAPD Z30, Z6
	VMOVAPD Z31, Z7

	// Store channel c's chunks at R8 = dst + c*dstride, c < nc.
zstore:
	MOVQ    40(SP), AX
	MOVQ    48(SP), CX
	MOVQ    dst_base+72(FP), R8
	MOVQ    dstride+104(FP), R9
	SHLQ    $3, R9
	VMOVUPD Z0, (R8)(AX*8)
	VMOVUPD Z1, (R8)(CX*8)
	CMPQ    nc+112(FP), $1
	JEQ     ztile
	ADDQ    R9, R8
	VMOVUPD Z2, (R8)(AX*8)
	VMOVUPD Z3, (R8)(CX*8)
	CMPQ    nc+112(FP), $2
	JEQ     ztile
	ADDQ    R9, R8
	VMOVUPD Z4, (R8)(AX*8)
	VMOVUPD Z5, (R8)(CX*8)
	CMPQ    nc+112(FP), $3
	JEQ     ztile
	ADDQ    R9, R8
	VMOVUPD Z6, (R8)(AX*8)
	VMOVUPD Z7, (R8)(CX*8)
	JMP     ztile

zdone:
	VZEROUPPER
	RET

// func dwTileAVX512(g, x []float64, offs []int, c []float64, ldc, w, gap, nc int)
//
// ConvDWPad's AVX-512 register tile, dwTileAVX2 with eight rows per lane
// set: g interleaves the rows of an eight-row block as g[8t+r], and
// accumulator Zj holds column j, reading x[offs[j]+t]; its lane r is row
// r's chain s += g[8t+r] * x[offs[j]+t], starting at +0, t ascending over
// the span's rows of w steps, skipping the gap steps between rows. At the
// end the 8×8 block is transposed into rows and c[r*ldc+j] += s for rows
// r = 0..7 and the first nc columns j, under an opmask; the other columns
// compute what their offsets give and are not stored. The caller
// guarantees offs[j]+len(g)/8 ≤ len(x) for all eight j and
// 7*ldc+nc ≤ len(c).
TEXT ·dwTileAVX512(SB), NOSPLIT, $0-128
	MOVQ   g_base+0(FP), SI
	MOVQ   g_len+8(FP), CX
	SHRQ   $3, CX
	MOVQ   x_base+24(FP), AX
	MOVQ   offs_base+48(FP), DI
	MOVQ   (DI), R8
	MOVQ   8(DI), R9
	MOVQ   16(DI), R10
	MOVQ   24(DI), R11
	MOVQ   32(DI), R12
	MOVQ   40(DI), R13
	MOVQ   48(DI), BX
	MOVQ   56(DI), DX
	LEAQ   (AX)(R8*8), R8
	LEAQ   (AX)(R9*8), R9
	LEAQ   (AX)(R10*8), R10
	LEAQ   (AX)(R11*8), R11
	LEAQ   (AX)(R12*8), R12
	LEAQ   (AX)(R13*8), R13
	LEAQ   (AX)(BX*8), BX
	LEAQ   (AX)(DX*8), DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    zdwsum

// ZDWSTEP multiplies the eight-row g vector at goff(SI) by the eight
// columns' inputs xoff bytes past R8..DX, broadcast, and adds each product
// to its column's accumulator. The inputs are addressed without an index
// register, which would split each VMULPD into two uops.
#define ZDWSTEP(goff, xoff) \
	VMOVUPD     goff(SI), Z8;       \
	VMULPD.BCST xoff(R8), Z8, Z16;  \
	VMULPD.BCST xoff(R9), Z8, Z17;  \
	VMULPD.BCST xoff(R10), Z8, Z18; \
	VMULPD.BCST xoff(R11), Z8, Z19; \
	VMULPD.BCST xoff(R12), Z8, Z20; \
	VMULPD.BCST xoff(R13), Z8, Z21; \
	VMULPD.BCST xoff(BX), Z8, Z22;  \
	VMULPD.BCST xoff(DX), Z8, Z23;  \
	VADDPD      Z16, Z0, Z0;        \
	VADDPD      Z17, Z1, Z1;        \
	VADDPD      Z18, Z2, Z2;        \
	VADDPD      Z19, Z3, Z3;        \
	VADDPD      Z20, Z4, Z4;        \
	VADDPD      Z21, Z5, Z5;        \
	VADDPD      Z22, Z6, Z6;        \
	VADDPD      Z23, Z7, Z7

// ZDWNEXT advances the eight column pointers R8..DX by n bytes.
#define ZDWNEXT(n) \
	ADDQ n, R8;  \
	ADDQ n, R9;  \
	ADDQ n, R10; \
	ADDQ n, R11; \
	ADDQ n, R12; \
	ADDQ n, R13; \
	ADDQ n, BX;  \
	ADDQ n, DX

// Each row runs its w steps two at a time, then an odd last one; AX
// counts the steps.
zdwrow:
	MOVQ w+104(FP), DI
	SHRQ $1, DI
	JZ   zdwodd

zdwpair:
	ZDWSTEP(0, 0)
	ZDWSTEP(64, 8)
	ADDQ    $128, SI
	ZDWNEXT($16)
	ADDQ    $2, AX
	DECQ    DI
	JNZ     zdwpair

zdwodd:
	MOVQ    w+104(FP), DI
	ANDQ    $1, DI
	JZ      zdwgap
	ZDWSTEP(0, 0)
	ADDQ    $64, SI
	ZDWNEXT($8)
	INCQ    AX

	// Step over the gap: gap positions in x, gap eight-row groups in g.
zdwgap:
	MOVQ    gap+112(FP), DI
	ADDQ    DI, AX
	SHLQ    $3, DI
	ZDWNEXT(DI)
	SHLQ    $3, DI
	ADDQ    DI, SI
	CMPQ    AX, CX
	JLT     zdwrow

	// Transpose: unpack pairs of columns, then gather 128-bit blocks, so
	// row r lands in Z(24+r).
zdwsum:
	VUNPCKLPD  Z1, Z0, Z16
	VUNPCKHPD  Z1, Z0, Z17
	VUNPCKLPD  Z3, Z2, Z18
	VUNPCKHPD  Z3, Z2, Z19
	VUNPCKLPD  Z5, Z4, Z20
	VUNPCKHPD  Z5, Z4, Z21
	VUNPCKLPD  Z7, Z6, Z22
	VUNPCKHPD  Z7, Z6, Z23
	VSHUFF64X2 $0x44, Z18, Z16, Z8
	VSHUFF64X2 $0xEE, Z18, Z16, Z9
	VSHUFF64X2 $0x44, Z22, Z20, Z10
	VSHUFF64X2 $0xEE, Z22, Z20, Z11
	VSHUFF64X2 $0x88, Z10, Z8, Z24
	VSHUFF64X2 $0xDD, Z10, Z8, Z26
	VSHUFF64X2 $0x88, Z11, Z9, Z28
	VSHUFF64X2 $0xDD, Z11, Z9, Z30
	VSHUFF64X2 $0x44, Z19, Z17, Z8
	VSHUFF64X2 $0xEE, Z19, Z17, Z9
	VSHUFF64X2 $0x44, Z23, Z21, Z10
	VSHUFF64X2 $0xEE, Z23, Z21, Z11
	VSHUFF64X2 $0x88, Z10, Z8, Z25
	VSHUFF64X2 $0xDD, Z10, Z8, Z27
	VSHUFF64X2 $0x88, Z11, Z9, Z29
	VSHUFF64X2 $0xDD, Z11, Z9, Z31
	MOVQ       nc+120(FP), CX
	MOVL       $1, R8
	SHLQ       CX, R8
	DECQ       R8
	KMOVW      R8, K1
	MOVQ       c_base+72(FP), DI
	MOVQ       ldc+96(FP), DX
	SHLQ       $3, DX

// ZROWACC adds row vector s into the first nc elements of the row at DI,
// then steps DI to the next row: c[j] + s, c the first source.
#define ZROWACC(s) \
	VMOVUPD.Z (DI), K1, Z8; \
	VADDPD    s, Z8, Z8;    \
	VMOVUPD   Z8, K1, (DI); \
	ADDQ      DX, DI

	ZROWACC(Z24)
	ZROWACC(Z25)
	ZROWACC(Z26)
	ZROWACC(Z27)
	ZROWACC(Z28)
	ZROWACC(Z29)
	ZROWACC(Z30)
	ZROWACC(Z31)
	VZEROUPPER
	RET
