#include "textflag.h"

// func foldRows(q, rows []float64, dim, lo, hi int, best float64) float64
//
// foldRowsGo (fold.go) two lanes at a time. SSE2 only, which GOAMD64=v1
// guarantees; packed IEEE double arithmetic rounds each lane exactly as the
// scalar instruction does, so the result equals foldRowsGo's bit for bit.
//
//	X0       best
//	X1, X2   (a0, a1), (a2, a3)
//	SI, DI   q, cursor into rows
//	R8, R9   dim/4, dim%4
//	R10, R11 cursor into q, blocks or tail elements left in this row
//	BX       rows left
TEXT ·foldRows(SB), NOSPLIT, $0-88
	MOVQ  q_base+0(FP), SI
	MOVQ  rows_base+24(FP), DI
	MOVQ  dim+48(FP), CX
	MOVQ  lo+56(FP), AX
	MOVQ  hi+64(FP), BX
	MOVSD best+72(FP), X0
	SUBQ  AX, BX
	JLE   done
	IMULQ CX, AX
	LEAQ  (DI)(AX*8), DI // &rows[lo*dim]
	MOVQ  CX, R8
	SHRQ  $2, R8
	MOVQ  CX, R9
	ANDQ  $3, R9

row:
	XORPS X1, X1
	XORPS X2, X2
	MOVQ  SI, R10
	MOVQ  R8, R11
	TESTQ R11, R11
	JZ    tail

block:
	MOVUPD (R10), X3
	MOVUPD 16(R10), X4
	MOVUPD (DI), X5
	MOVUPD 16(DI), X6
	SUBPD  X5, X3 // q - row
	SUBPD  X6, X4
	MULPD  X3, X3
	MULPD  X4, X4
	ADDPD  X3, X1
	ADDPD  X4, X2
	ADDQ   $32, R10
	ADDQ   $32, DI
	DECQ   R11
	JNZ    block

tail:
	MOVQ  R9, R11
	TESTQ R11, R11
	JZ    sum

tailloop:
	MOVSD (R10), X3
	SUBSD (DI), X3
	MULSD X3, X3
	ADDSD X3, X1 // the a0 lane; a1 stays
	ADDQ  $8, R10
	ADDQ  $8, DI
	DECQ  R11
	JNZ   tailloop

sum:
	MOVAPD   X1, X3
	UNPCKHPD X3, X3
	ADDSD    X3, X1 // a0 + a1
	MOVAPD   X2, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X2 // a2 + a3
	ADDSD    X2, X1
	MINSD    X0, X1 // acc < best ? acc : best — best when either is NaN, as Go's <
	MOVAPD   X1, X0
	DECQ     BX
	JNZ      row

done:
	MOVSD X0, ret+80(FP)
	RET
