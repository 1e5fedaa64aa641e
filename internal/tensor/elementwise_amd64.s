#include "textflag.h"

// AVX2 bodies of the kernels in elementwise.go. The elementwise bodies
// carry one element per lane through the Go loop's expression: VMULPD,
// VADDPD and VSUBPD in the Go evaluation order, with the left operand of
// every Go operator as the first source, and no FMA. The per-plane sums
// carry one plane per lane: four planes' next four elements are loaded as
// rows and transposed in registers, so each step adds one element of every
// plane to that plane's own accumulator, in ascending element order.
//
// ReLU keeps v where the compare "v ≤ 0" is false (NLE_UQ: v > 0 or a NaN)
// and clears its sign bit, +0 elsewhere: Go's max(v, 0), which returns a
// NaN with its sign bit cleared.

// ROWPTR(j, r) points r at lane j's plane: base R10 plus min(j, R12)
// planes of R11 elements, R12 being the last lane in use, so lanes past it
// repeat that plane. Clobbers R13.
#define ROWPTR(j, r) \
	MOVQ    $j, R13;  \
	CMPQ    R13, R12; \
	CMOVQGT R12, R13; \
	IMULQ   R11, R13; \
	LEAQ    (R10)(R13*8), r

// YRELU replaces y with max(y, 0), using t as scratch. It needs Y14 =
// 0x7fff…, Y15 = 0.
#define YRELU(y, t) \
	VCMPPD $0x16, Y15, y, t; \
	VANDPD Y14, y, y;        \
	VANDPD t, y, y

// The constants reach an XMM register by VMOVQ, not MOVQ: a legacy SSE
// instruction while the upper halves of the YMM registers are dirty costs
// a state transition, and made the pooling rows ten times slower.
#define YRELUCONSTS \
	MOVQ         $0x7fffffffffffffff, R11; \
	VMOVQ        R11, X14;                 \
	VPBROADCASTQ X14, Y14;                 \
	VXORPD       Y15, Y15, Y15

// func reluAVX2(dst, x []float64)
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	YRELUCONSTS
	SHRQ $2, CX
	JZ   yreludone

yreluloop:
	VMOVUPD (SI), Y0
	YRELU(Y0, Y1)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     yreluloop

yreludone:
	VZEROUPPER
	RET

// func reluMaskAVX2(dst, g, out []float64)
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   g_base+24(FP), SI
	MOVQ   out_base+48(FP), R8
	VXORPD Y15, Y15, Y15
	SHRQ   $2, CX
	JZ     ymaskdone

ymaskloop:
	VPCMPEQQ (R8), Y15, Y1
	VANDNPD  (SI), Y1, Y0
	VMOVUPD  Y0, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	ADDQ     $32, R8
	DECQ     CX
	JNZ      ymaskloop

ymaskdone:
	VZEROUPPER
	RET

// func addAVX2(dst, a, b []float64, relu bool)
TEXT ·addAVX2(SB), NOSPLIT, $0-73
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    a_base+24(FP), SI
	MOVQ    b_base+48(FP), R8
	MOVBQZX relu+72(FP), R9
	YRELUCONSTS
	SHRQ    $2, CX
	JZ      yadddone

yaddloop:
	VMOVUPD (SI), Y0
	VADDPD  (R8), Y0, Y0
	TESTQ   R9, R9
	JZ      yaddstore
	YRELU(Y0, Y1)

yaddstore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     yaddloop

yadddone:
	VZEROUPPER
	RET

// func addConstAVX2(dst []float64, c float64)
TEXT ·addConstAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y1
	SHRQ         $2, CX
	JZ           yconstdone

yconstloop:
	VMOVUPD (DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     yconstloop

yconstdone:
	VZEROUPPER
	RET

// func bnApplyAVX2(dst, xhat, x []float64, mu, inv, gamma, beta float64, relu bool)
TEXT ·bnApplyAVX2(SB), NOSPLIT, $0-105
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         xhat_base+24(FP), R9
	MOVQ         xhat_len+32(FP), R10
	MOVQ         x_base+48(FP), SI
	VBROADCASTSD mu+72(FP), Y10
	VBROADCASTSD inv+80(FP), Y11
	VBROADCASTSD gamma+88(FP), Y12
	VBROADCASTSD beta+96(FP), Y13
	MOVBQZX      relu+104(FP), R8
	YRELUCONSTS
	SHRQ         $2, CX
	JZ           ybndone

ybnloop:
	VMOVUPD (SI), Y0
	VSUBPD  Y10, Y0, Y0
	VMULPD  Y11, Y0, Y0
	TESTQ   R10, R10
	JZ      ybnaffine
	VMOVUPD Y0, (R9)
	ADDQ    $32, R9

ybnaffine:
	VMULPD Y0, Y12, Y0
	VADDPD Y13, Y0, Y0
	TESTQ  R8, R8
	JZ     ybnstore
	YRELU(Y0, Y1)

ybnstore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     ybnloop

ybndone:
	VZEROUPPER
	RET

// func bnBackwardAVX2(dx, dy, xhat, out []float64, k, fn, sdy, sdx float64)
TEXT ·bnBackwardAVX2(SB), NOSPLIT, $0-128
	MOVQ         dx_base+0(FP), DI
	MOVQ         dx_len+8(FP), CX
	MOVQ         dy_base+24(FP), SI
	MOVQ         xhat_base+48(FP), R8
	MOVQ         out_base+72(FP), R9
	MOVQ         out_len+80(FP), R10
	VBROADCASTSD k+96(FP), Y10
	VBROADCASTSD fn+104(FP), Y11
	VBROADCASTSD sdy+112(FP), Y12
	VBROADCASTSD sdx+120(FP), Y13
	VXORPD       Y15, Y15, Y15
	SHRQ         $2, CX
	JZ           ybbdone

ybbloop:
	TESTQ    R10, R10
	JZ       ybbplain
	VPCMPEQQ (R9), Y15, Y1
	VANDNPD  (SI), Y1, Y0
	ADDQ     $32, R9
	JMP      ybbterms

ybbplain:
	VMOVUPD (SI), Y0

ybbterms:
	VMULPD  Y0, Y11, Y0
	VSUBPD  Y12, Y0, Y0
	VMOVUPD (R8), Y1
	VMULPD  Y13, Y1, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y0, Y10, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     ybbloop

ybbdone:
	VZEROUPPER
	RET

// YROWS points AX, BX, CX and DX at lanes 0..3.
#define YROWS \
	ROWPTR(0, AX); \
	ROWPTR(1, BX); \
	ROWPTR(2, CX); \
	ROWPTR(3, DX)

// YTR4 transposes the rows a0..a3 into columns, left in a0..a3, using
// b0..b3 as scratch.
#define YTR4(a0, a1, a2, a3, b0, b1, b2, b3) \
	VUNPCKLPD  a1, a0, b0;        \
	VUNPCKHPD  a1, a0, b1;        \
	VUNPCKLPD  a3, a2, b2;        \
	VUNPCKHPD  a3, a2, b3;        \
	VPERM2F128 $0x20, b2, b0, a0; \
	VPERM2F128 $0x20, b3, b1, a1; \
	VPERM2F128 $0x31, b2, b0, a2; \
	VPERM2F128 $0x31, b3, b1, a3

// YSUM4 adds the columns a0..a3 to acc in ascending order.
#define YSUM4(acc, a0, a1, a2, a3) \
	VADDPD a0, acc, acc; \
	VADDPD a1, acc, acc; \
	VADDPD a2, acc, acc; \
	VADDPD a3, acc, acc

#define YNEXT4 \
	ADDQ $32, AX; \
	ADDQ $32, BX; \
	ADDQ $32, CX; \
	ADDQ $32, DX

// func planeSumsAVX2(x []float64, n, cnt, lanes int, s *[4]float64)
TEXT ·planeSumsAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), R10
	MOVQ   n+24(FP), R11
	MOVQ   lanes+40(FP), R12
	DECQ   R12
	YROWS
	MOVQ   cnt+32(FP), R12
	SHRQ   $2, R12
	VXORPD Y8, Y8, Y8
	JZ     ypsdone

ypsloop:
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y1
	VMOVUPD (CX), Y2
	VMOVUPD (DX), Y3
	YTR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	YSUM4(Y8, Y0, Y1, Y2, Y3)
	YNEXT4
	DECQ    R12
	JNZ     ypsloop

ypsdone:
	MOVQ    s+48(FP), R13
	VMOVUPD Y8, (R13)
	VZEROUPPER
	RET

// YSQDEV replaces column a with (a - mean)², mean in Y10.
#define YSQDEV(a) \
	VSUBPD Y10, a, a; \
	VMULPD a, a, a

// func planeSqDevAVX2(x []float64, n, cnt, lanes int, mean, s *[4]float64)
TEXT ·planeSqDevAVX2(SB), NOSPLIT, $0-64
	MOVQ    x_base+0(FP), R10
	MOVQ    n+24(FP), R11
	MOVQ    lanes+40(FP), R12
	DECQ    R12
	YROWS
	MOVQ    mean+48(FP), R13
	VMOVUPD (R13), Y10
	MOVQ    cnt+32(FP), R12
	SHRQ    $2, R12
	VXORPD  Y8, Y8, Y8
	JZ      ysqdone

ysqloop:
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y1
	VMOVUPD (CX), Y2
	VMOVUPD (DX), Y3
	YTR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	YSQDEV(Y0)
	YSQDEV(Y1)
	YSQDEV(Y2)
	YSQDEV(Y3)
	YSUM4(Y8, Y0, Y1, Y2, Y3)
	YNEXT4
	DECQ    R12
	JNZ     ysqloop

ysqdone:
	MOVQ    s+56(FP), R13
	VMOVUPD Y8, (R13)
	VZEROUPPER
	RET

// YMASKROW loads row r's dy into y, +0 where the ReLU output, R11 bytes
// past r, is +0 (Y15 = 0).
#define YMASKROW(r, y) \
	VPCMPEQQ (r)(R11*1), Y15, y; \
	VANDNPD  (r), y, y

// func planeGradSumsAVX2(dy, xhat, out []float64, n, cnt, lanes int, sdy, sdx *[4]float64)
TEXT ·planeGradSumsAVX2(SB), NOSPLIT, $0-112
	MOVQ   dy_base+0(FP), R10
	MOVQ   n+72(FP), R11
	MOVQ   lanes+88(FP), R12
	DECQ   R12
	YROWS
	MOVQ   xhat_base+24(FP), R10
	SUBQ   dy_base+0(FP), R10
	MOVQ   out_base+48(FP), R11
	SUBQ   dy_base+0(FP), R11
	MOVQ   cnt+80(FP), R12
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y15, Y15, Y15
	SHRQ   $2, R12
	JZ     ygsdone

ygsloop:
	CMPQ out_len+56(FP), $0
	JEQ  ygsplain
	YMASKROW(AX, Y0)
	YMASKROW(BX, Y1)
	YMASKROW(CX, Y2)
	YMASKROW(DX, Y3)
	JMP  ygsprod

ygsplain:
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y1
	VMOVUPD (CX), Y2
	VMOVUPD (DX), Y3

ygsprod:
	VMULPD (AX)(R10*1), Y0, Y11
	VMULPD (BX)(R10*1), Y1, Y12
	VMULPD (CX)(R10*1), Y2, Y13
	VMULPD (DX)(R10*1), Y3, Y14
	YTR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	YSUM4(Y8, Y0, Y1, Y2, Y3)
	YTR4(Y11, Y12, Y13, Y14, Y4, Y5, Y6, Y7)
	YSUM4(Y9, Y11, Y12, Y13, Y14)
	YNEXT4
	DECQ   R12
	JNZ    ygsloop

ygsdone:
	MOVQ    sdy+96(FP), R13
	VMOVUPD Y8, (R13)
	MOVQ    sdx+104(FP), R13
	VMOVUPD Y9, (R13)
	VZEROUPPER
	RET

// Byte shuffle that moves the low byte of each quadword of a 128-bit lane
// to the lane's bytes 0 and 1.
DATA poolPackBytes<>+0(SB)/8, $0xffffffffffff0800
DATA poolPackBytes<>+8(SB)/8, $0xffffffffffffffff
DATA poolPackBytes<>+16(SB)/8, $0xffffffffffff0800
DATA poolPackBytes<>+24(SB)/8, $0xffffffffffffffff
GLOBL poolPackBytes<>(SB), RODATA|NOPTR, $32

// YPOOLCONSTS sets Y12..Y15 to the quadwords 0, 1, 2, 3 (VMOVQ: see
// YRELUCONSTS).
#define YPOOLCONSTS \
	VPXOR        Y12, Y12, Y12; \
	MOVQ         $1, AX;        \
	VMOVQ        AX, X13;       \
	VPBROADCASTQ X13, Y13;      \
	MOVQ         $2, AX;        \
	VMOVQ        AX, X14;       \
	VPBROADCASTQ X14, Y14;      \
	MOVQ         $3, AX;        \
	VMOVQ        AX, X15;       \
	VPBROADCASTQ X15, Y15

// func maxPoolRowAVX2(dst []float64, which []uint8, r0, r1 []float64)
//
// Four windows per step. Unpacking the low and high halves of eight row
// elements gives the window positions in the lane order of windows 0, 2,
// 1, 3; the selection runs in that order, and VPERMPD (maxima) and a byte
// interleave (argmax) put the windows back in order.
TEXT ·maxPoolRowAVX2(SB), NOSPLIT, $0-96
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    which_base+24(FP), R9
	MOVQ    which_len+32(FP), R10
	MOVQ    r0_base+48(FP), SI
	MOVQ    r1_base+72(FP), R8
	VMOVDQU poolPackBytes<>(SB), Y11
	YPOOLCONSTS
	SHRQ    $2, CX
	JZ      ypooldone

ypoolloop:
	VMOVUPD   (SI), Y4
	VMOVUPD   32(SI), Y5
	VUNPCKLPD Y5, Y4, Y0
	VUNPCKHPD Y5, Y4, Y1
	VMOVUPD   (R8), Y4
	VMOVUPD   32(R8), Y5
	VUNPCKLPD Y5, Y4, Y2
	VUNPCKHPD Y5, Y4, Y3
	VMOVDQU   Y12, Y6
	VCMPPD    $0x1E, Y0, Y1, Y7
	VBLENDVPD Y7, Y1, Y0, Y0
	VBLENDVPD Y7, Y13, Y6, Y6
	VCMPPD    $0x1E, Y0, Y2, Y7
	VBLENDVPD Y7, Y2, Y0, Y0
	VBLENDVPD Y7, Y14, Y6, Y6
	VCMPPD    $0x1E, Y0, Y3, Y7
	VBLENDVPD Y7, Y3, Y0, Y0
	VBLENDVPD Y7, Y15, Y6, Y6
	VPERMPD   $0xD8, Y0, Y0
	VMOVUPD   Y0, (DI)
	TESTQ     R10, R10
	JZ        ypoolnext
	VPSHUFB   Y11, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPUNPCKLBW X7, X6, X6
	VMOVD     X6, (R9)
	ADDQ      $4, R9

ypoolnext:
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  ypoolloop

ypooldone:
	VZEROUPPER
	RET

// YZIP stores a and b interleaved (a0 b0 a1 b1 a2 b2 a3 b3) at r, using
// Y8 and Y9 as scratch.
#define YZIP(a, b, r) \
	VUNPCKLPD  b, a, Y8;         \
	VUNPCKHPD  b, a, Y9;         \
	VPERM2F128 $0x20, Y9, Y8, a; \
	VPERM2F128 $0x31, Y9, Y8, b; \
	VMOVUPD    a, (r);           \
	VMOVUPD    b, 32(r)

// func maxPoolBackRowAVX2(d0, d1, g []float64, which []uint8)
TEXT ·maxPoolBackRowAVX2(SB), NOSPLIT, $0-96
	MOVQ d0_base+0(FP), DI
	MOVQ d1_base+24(FP), R8
	MOVQ g_base+48(FP), SI
	MOVQ g_len+56(FP), CX
	MOVQ which_base+72(FP), R9
	YPOOLCONSTS
	SHRQ $2, CX
	JZ   ypbdone

ypbloop:
	VMOVUPD   (SI), Y0
	VADDPD    Y0, Y12, Y0
	VPMOVZXBQ (R9), Y1
	VPCMPEQQ  Y12, Y1, Y2
	VPCMPEQQ  Y13, Y1, Y3
	VPCMPEQQ  Y14, Y1, Y4
	VPCMPEQQ  Y15, Y1, Y5
	VANDPD    Y0, Y2, Y2
	VANDPD    Y0, Y3, Y3
	VANDPD    Y0, Y4, Y4
	VANDPD    Y0, Y5, Y5
	YZIP(Y2, Y3, DI)
	YZIP(Y4, Y5, R8)
	ADDQ      $32, SI
	ADDQ      $4, R9
	ADDQ      $64, DI
	ADDQ      $64, R8
	DECQ      CX
	JNZ       ypbloop

ypbdone:
	VZEROUPPER
	RET
