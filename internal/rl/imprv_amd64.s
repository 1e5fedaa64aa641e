#include "textflag.h"

// imprvIota holds k for the sixteen lanes of a perimeter node's first chunk.
DATA imprvIota<>+0(SB)/4, $1
DATA imprvIota<>+4(SB)/4, $2
DATA imprvIota<>+8(SB)/4, $3
DATA imprvIota<>+12(SB)/4, $4
DATA imprvIota<>+16(SB)/4, $5
DATA imprvIota<>+20(SB)/4, $6
DATA imprvIota<>+24(SB)/4, $7
DATA imprvIota<>+28(SB)/4, $8
DATA imprvIota<>+32(SB)/4, $9
DATA imprvIota<>+36(SB)/4, $10
DATA imprvIota<>+40(SB)/4, $11
DATA imprvIota<>+44(SB)/4, $12
DATA imprvIota<>+48(SB)/4, $13
DATA imprvIota<>+52(SB)/4, $14
DATA imprvIota<>+56(SB)/4, $15
DATA imprvIota<>+60(SB)/4, $16
GLOBL imprvIota<>(SB), RODATA|NOPTR, $64

// func imprvAVX512(dist []int16, ring []int32, n, sentinel int) (icw, iccw int)
//
// The AVX-512 body of imprvGo: for each perimeter position i and every
// k in 1..L-1, lane k-1 (mod 16) of the accumulators adds
// max(cur-k, 0) and max(cur-(L-k), 0), cur = dist[u*n+v] for u = ring[i],
// v = ring[i+k], with -1 read as sentinel. The sums are integers, so the
// lane order does not change them.
//
// VPGATHERDD reads the dword at byte offset 2*(u*n+v) - 2 of dist, whose
// high half is dist[u*n+v]; u != v makes u*n+v >= 1, so every read stays
// inside dist. VPSRLD $16 leaves the entry zero-extended, which turns -1
// into 0xFFFF, and VPMINUD with the sentinel clamps it (a connected pair's
// distance is below the sentinel). The last chunk of each row masks its
// load, its gather and its adds to the (L-1) mod 16 live lanes.
TEXT ·imprvAVX512(SB), NOSPLIT, $0-80
	MOVQ dist_base+0(FP), DI
	SUBQ $2, DI
	MOVQ ring_base+24(FP), SI
	MOVQ ring_len+32(FP), R13
	SHRQ $1, R13                    // R13 = L
	MOVQ n+48(FP), R8
	SHLQ $1, R8                     // R8 = bytes per dist row

	// R11 full chunks per row, K2 the tail chunk's live lanes.
	LEAQ -1(R13), R11
	MOVQ R11, CX
	SHRQ $4, R11
	ANDQ $15, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2

	MOVQ         sentinel+56(FP), AX
	VPBROADCASTD AX, Z2
	VMOVDQU32    imprvIota<>(SB), Z3 // k
	VPBROADCASTD R13, Z4
	VPSUBD       Z3, Z4, Z4          // L - k
	MOVL         $16, AX
	VPBROADCASTD AX, Z5
	VPXORD       Z6, Z6, Z6
	VPXORD       Z0, Z0, Z0          // clockwise sums
	VPXORD       Z1, Z1, Z1          // counterclockwise sums

	XORQ BX, BX

row:
	MOVL      (SI)(BX*4), AX
	IMULQ     R8, AX
	LEAQ      (DI)(AX*1), R9        // &dist[u*n] - 2 bytes
	LEAQ      4(SI)(BX*4), R10      // &ring[i+1]
	VMOVDQA32 Z3, Z7
	VMOVDQA32 Z4, Z8
	MOVQ      R11, DX
	TESTQ     DX, DX
	JZ        tail

chunk:
	VMOVDQU32  (R10), Z9
	KXNORW     K1, K1, K1
	VPXORD     Z10, Z10, Z10
	VPGATHERDD (R9)(Z9*2), K1, Z10
	VPSRLD     $16, Z10, Z10
	VPMINUD    Z2, Z10, Z10
	VPSUBD     Z7, Z10, Z11
	VPMAXSD    Z6, Z11, Z11
	VPADDD     Z11, Z0, Z0
	VPSUBD     Z8, Z10, Z11
	VPMAXSD    Z6, Z11, Z11
	VPADDD     Z11, Z1, Z1
	VPADDD     Z5, Z7, Z7
	VPSUBD     Z5, Z8, Z8
	ADDQ       $64, R10
	DECQ       DX
	JNZ        chunk

tail:
	KORTESTW   K2, K2
	JZ         next
	VMOVDQU32.Z (R10), K2, Z9
	KMOVW      K2, K1
	VPXORD     Z10, Z10, Z10
	VPGATHERDD (R9)(Z9*2), K1, Z10
	VPSRLD     $16, Z10, Z10
	VPMINUD    Z2, Z10, Z10
	VPSUBD     Z7, Z10, Z11
	VPMAXSD    Z6, Z11, Z11
	VPADDD     Z11, Z0, K2, Z0
	VPSUBD     Z8, Z10, Z11
	VPMAXSD    Z6, Z11, Z11
	VPADDD     Z11, Z1, K2, Z1

next:
	INCQ BX
	CMPQ BX, R13
	JLT  row

	VEXTRACTI64X4 $1, Z0, Y9
	VPADDD        Y9, Y0, Y0
	VEXTRACTI128  $1, Y0, X9
	VPADDD        X9, X0, X0
	VPSHUFD       $0x4E, X0, X9
	VPADDD        X9, X0, X0
	VPSHUFD       $0xB1, X0, X9
	VPADDD        X9, X0, X0
	VMOVD         X0, AX
	MOVQ          AX, icw+64(FP)

	VEXTRACTI64X4 $1, Z1, Y9
	VPADDD        Y9, Y1, Y1
	VEXTRACTI128  $1, Y1, X9
	VPADDD        X9, X1, X1
	VPSHUFD       $0x4E, X1, X9
	VPADDD        X9, X1, X1
	VPSHUFD       $0xB1, X1, X9
	VPADDD        X9, X1, X1
	VMOVD         X1, AX
	MOVQ          AX, iccw+72(FP)
	VZEROUPPER
	RET
