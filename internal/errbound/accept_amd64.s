//go:build amd64 && !race

#include "textflag.h"

// func acceptF32(acc int32, a, b []byte, off int) int
//
// Per 32-byte block: each 16-byte half subtracted in float32 (SUBPS is Go's
// SUBSS on four lanes, under the same default MXCSR), sign bits cleared,
// every lane compared with acc (PCMPGTL sets it exactly where
// acc − bits(|d|) < 0), the halves OR-ed, and one branch.
TEXT ·acceptF32(SB), NOSPLIT, $0-72
	MOVL	acc+0(FP), AX
	MOVL	AX, X6
	PSHUFL	$0, X6, X6              // acc in every lane
	MOVL	$0x7fffffff, AX
	MOVL	AX, X7
	PSHUFL	$0, X7, X7              // clears the sign bit of every lane
	MOVQ	a_base+8(FP), SI
	MOVQ	a_len+16(FP), CX
	MOVQ	b_base+32(FP), DI
	MOVQ	off+56(FP), AX
	SUBQ	$32, CX                 // the last offset a whole block starts at
	JMP	test

block:
	MOVOU	(SI)(AX*1), X0
	MOVOU	16(SI)(AX*1), X1
	MOVOU	(DI)(AX*1), X2
	MOVOU	16(DI)(AX*1), X3
	SUBPS	X2, X0
	SUBPS	X3, X1
	PAND	X7, X0
	PAND	X7, X1
	PCMPGTL	X6, X0
	PCMPGTL	X6, X1
	POR	X1, X0
	PMOVMSKB	X0, DX
	TESTL	DX, DX
	JNZ	done
	ADDQ	$32, AX

test:
	CMPQ	AX, CX
	JLE	block

done:
	MOVQ	AX, ret+64(FP)
	RET
