#include "textflag.h"

// func xorPopcounts4avx512(counts *int32, w, x *uint64, n, rows int)
//
// XorPopcounts4 eight words at a time: VPOPCNTQ counts the bits of each
// qword lane, Z8..Z11 accumulate per-lane counts for the four weight rows,
// and the last n%8 words go through a zeroing masked load (K1), which
// neither reads past the rows nor counts anything for the missing lanes.
TEXT ·xorPopcounts4avx512(SB), NOSPLIT, $0-40
	MOVQ counts+0(FP), DI
	MOVQ w+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), BX
	MOVQ rows+32(FP), DX
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	MOVQ BX, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1 // lanes of the last, partial chunk
	MOVQ BX, R12
	ANDQ $-8, R12 // words in whole chunks

row512:
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	XORQ   CX, CX
	CMPQ   CX, R12
	JGE    tail512

chunk512:
	VMOVDQU64 (SI)(CX*8), Z0
	VPXORQ    (R8)(CX*8), Z0, Z1
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z1, Z8, Z8
	VPXORQ    (R9)(CX*8), Z0, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z9, Z9
	VPXORQ    (R10)(CX*8), Z0, Z3
	VPOPCNTQ  Z3, Z3
	VPADDQ    Z3, Z10, Z10
	VPXORQ    (R11)(CX*8), Z0, Z4
	VPOPCNTQ  Z4, Z4
	VPADDQ    Z4, Z11, Z11
	ADDQ      $8, CX
	CMPQ      CX, R12
	JLT       chunk512

tail512:
	KORTESTW K1, K1
	JZ       sum512
	VMOVDQU64.Z (SI)(CX*8), K1, Z0
	VMOVDQU64.Z (R8)(CX*8), K1, Z1
	VPXORQ      Z0, Z1, Z1
	VPOPCNTQ    Z1, Z1
	VPADDQ      Z1, Z8, Z8
	VMOVDQU64.Z (R9)(CX*8), K1, Z2
	VPXORQ      Z0, Z2, Z2
	VPOPCNTQ    Z2, Z2
	VPADDQ      Z2, Z9, Z9
	VMOVDQU64.Z (R10)(CX*8), K1, Z3
	VPXORQ      Z0, Z3, Z3
	VPOPCNTQ    Z3, Z3
	VPADDQ      Z3, Z10, Z10
	VMOVDQU64.Z (R11)(CX*8), K1, Z4
	VPXORQ      Z0, Z4, Z4
	VPOPCNTQ    Z4, Z4
	VPADDQ      Z4, Z11, Z11

sum512:
	// Lane sums of the four accumulators, transposed into the four counts:
	// pairwise qword sums (unpack), then 128-bit lane sums (shuffle), so
	// qwords 0..3 of Z12 end up holding the totals of Z8..Z11.
	VPUNPCKLQDQ Z9, Z8, Z12
	VPUNPCKHQDQ Z9, Z8, Z13
	VPADDQ      Z13, Z12, Z12
	VPUNPCKLQDQ Z11, Z10, Z13
	VPUNPCKHQDQ Z11, Z10, Z14
	VPADDQ      Z14, Z13, Z13
	VSHUFI64X2  $0x88, Z13, Z12, Z14
	VSHUFI64X2  $0xdd, Z13, Z12, Z16
	VPADDQ      Z16, Z14, Z14
	VSHUFI64X2  $0x08, Z14, Z14, Z12
	VSHUFI64X2  $0x0d, Z14, Z14, Z13
	VPADDQ      Z13, Z12, Z12
	VPMOVQD     Z12, Y12
	VMOVDQU     X12, (DI)

	ADDQ $16, DI
	LEAQ (SI)(BX*8), SI
	DECQ DX
	JNZ  row512
	VZEROUPPER
	RET
