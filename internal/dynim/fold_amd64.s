#include "textflag.h"

// func foldBlocks(q, blocks []float64, dim int, best float64) float64
//
// foldRowsGo (fold.go) over whole blocks of four rows, one row per YMM lane.
// Coordinate j of a block's four rows is one 32-byte load; q[j] is
// broadcast. Each lane does foldRowsGo's operations in its order — q−row,
// the product rounded, then added (never fused) into a0..a3, the tail into
// a0, (a0+a1)+(a2+a3) — and packed IEEE arithmetic rounds each lane as the
// scalar instruction does, so every row's distance is foldRowsGo's bit for
// bit. VMINPD with acc as its first source returns acc only if acc < best,
// NaN included, which is Go's <. The four lanes' minima are reduced at the
// end; with no NaN landing and no −0 that is order-free.
//
//	Y0       best, per lane
//	Y1..Y4   a0..a3
//	Y5..Y8   q[j] broadcast, then q[j]−row, then its square
//	SI, DI   q, cursor into blocks
//	BX       end of blocks
//	R8, R9   dim/4, dim%4
//	R10, R11 cursor into q, groups or tail coordinates left in this block
TEXT ·foldBlocks(SB), NOSPLIT, $0-72
	MOVQ         q_base+0(FP), SI
	MOVQ         blocks_base+24(FP), DI
	MOVQ         blocks_len+32(FP), BX
	MOVQ         dim+48(FP), CX
	VBROADCASTSD best+56(FP), Y0
	LEAQ         (DI)(BX*8), BX
	MOVQ         CX, R8
	SHRQ         $2, R8
	MOVQ         CX, R9
	ANDQ         $3, R9

block:
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	MOVQ   SI, R10
	MOVQ   R8, R11
	TESTQ  R11, R11
	JZ     tail

group:
	VBROADCASTSD (R10), Y5
	VBROADCASTSD 8(R10), Y6
	VBROADCASTSD 16(R10), Y7
	VBROADCASTSD 24(R10), Y8
	VSUBPD       (DI), Y5, Y5 // q - row
	VSUBPD       32(DI), Y6, Y6
	VSUBPD       64(DI), Y7, Y7
	VSUBPD       96(DI), Y8, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	VADDPD       Y8, Y4, Y4
	ADDQ         $32, R10
	ADDQ         $128, DI
	DECQ         R11
	JNZ          group

tail:
	MOVQ  R9, R11
	TESTQ R11, R11
	JZ    sum

tailloop:
	VBROADCASTSD (R10), Y5
	VSUBPD       (DI), Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y1, Y1 // a0
	ADDQ         $8, R10
	ADDQ         $32, DI
	DECQ         R11
	JNZ          tailloop

sum:
	VADDPD Y2, Y1, Y1 // a0 + a1
	VADDPD Y4, Y3, Y3 // a2 + a3
	VADDPD Y3, Y1, Y1
	VMINPD Y0, Y1, Y0 // acc < best ? acc : best, per lane
	CMPQ   DI, BX
	JB     block

	VEXTRACTF128 $1, Y0, X1
	VMINPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMINSD       X1, X0, X0
	VZEROUPPER
	MOVSD        X0, ret+64(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
