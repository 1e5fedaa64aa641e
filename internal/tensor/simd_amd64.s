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

// func dot4x4AVX2(g, p0, p1, p2, p3 []float64, s *[16]float64)
//
// Accumulator Yc holds column c; its lane r is row r's chain
// s += g[4t+r] * pc[t], starting at +0, t ascending.
TEXT ·dot4x4AVX2(SB), NOSPLIT, $0-128
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

dotloop:
	CMPQ         AX, CX
	JGE          dotdone
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
	JMP          dotloop

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
