//go:build amd64 && !race

#include "textflag.h"

// FMIX is murmur3's fmix64 on h, with t as scratch; its two multipliers are
// the frame's locals.
#define FMIX(h, t) \
	MOVQ	h, t; SHRQ $33, t; XORQ t, h; IMULQ fmix1-8(SP), h; \
	MOVQ	h, t; SHRQ $33, t; XORQ t, h; IMULQ fmix2-16(SP), h; \
	MOVQ	h, t; SHRQ $33, t; XORQ t, h

// BLOCK is murmur3.Mix(h1, h2, k1, k2) then murmur3.Fin(h1, h2, 16), with
// c1 in R14 and c2 in R15; k1 and k2 are clobbered.
#define BLOCK(h1, h2, k1, k2) \
	IMULQ	R14, k1; ROLQ $31, k1; IMULQ R15, k1; XORQ k1, h1; \
	ROLQ	$27, h1; ADDQ h2, h1; LEAQ 0x52dce729(h1)(h1*4), h1; \
	IMULQ	R15, k2; ROLQ $33, k2; IMULQ R14, k2; XORQ k2, h2; \
	ROLQ	$31, h2; ADDQ h1, h2; LEAQ 0x38495ab5(h2)(h2*4), h2; \
	XORQ	$16, h1; XORQ $16, h2; ADDQ h2, h1; ADDQ h1, h2; \
	FMIX(h1, k1); FMIX(h2, k2); \
	ADDQ	h2, h1; ADDQ h1, h2

// CELLS floors the two float64 lanes of x (already divided by ε) and
// converts them into lo and hi; x is clobbered.
#define CELLS(x, lo, hi) \
	ROUNDPD	$9, x, x; CVTTSD2SQ x, lo; UNPCKHPD x, x; CVTTSD2SQ x, hi

// func hashPairF32(eps float64, safe uint32, data []byte, chunk, off, lim int, st *[2]murmur3.Chain) (next int)
//
// hashChunkF32's loop on two chunks at once, 16 bytes of each per step: one
// guard for all eight lanes (the magnitudes, PCMPGTL against safe), then
// CVTPS2PD, DIVPD by ε (Go's DIVSD, two lanes at a time), ROUNDPD $9 (floor)
// and CVTTSD2SQ per lane, and per chain two chained Murmur3F blocks on state
// kept in R8–R11. It stops at the last whole step before lim or at the first
// step whose guard fails, and returns that offset.
TEXT ·hashPairF32(SB), NOSPLIT, $16-80
	MOVQ	$0xff51afd7ed558ccd, AX
	MOVQ	AX, fmix1-8(SP)
	MOVQ	$0xc4ceb9fe1a85ec53, AX
	MOVQ	AX, fmix2-16(SP)
	MOVQ	$0x87c37b91114253d5, R14
	MOVQ	$0x4cf5ad432745937f, R15
	MOVSD	eps+0(FP), X5
	UNPCKLPD	X5, X5          // ε in both lanes
	MOVL	safe+8(FP), AX
	MOVL	AX, X6
	PSHUFL	$0, X6, X6              // safe in every lane
	MOVL	$0x7fffffff, AX
	MOVL	AX, X7
	PSHUFL	$0, X7, X7              // clears the sign bit of every lane
	MOVQ	data_base+16(FP), SI    // chunk a
	MOVQ	chunk+40(FP), DI
	ADDQ	SI, DI                  // chunk b
	MOVQ	off+48(FP), AX
	MOVQ	lim+56(FP), CX
	MOVQ	st+64(FP), BX
	MOVQ	0(BX), R8
	MOVQ	8(BX), R9
	MOVQ	16(BX), R10
	MOVQ	24(BX), R11
	SUBQ	$16, CX                 // the last offset a whole step starts at
	JMP	test

step:
	MOVOU	(SI)(AX*1), X0
	MOVOU	(DI)(AX*1), X1
	MOVO	X0, X2
	MOVO	X1, X3
	PAND	X7, X2
	PAND	X7, X3
	PCMPGTL	X6, X2
	PCMPGTL	X6, X3
	POR	X3, X2
	PMOVMSKB	X2, BX
	TESTL	BX, BX
	JNZ	done                    // the caller takes this step on the cell path
	CVTPS2PD	X0, X2          // a, elements 0–1
	MOVHLPS	X0, X0
	CVTPS2PD	X0, X3          // a, elements 2–3
	CVTPS2PD	X1, X8          // b, elements 0–1
	MOVHLPS	X1, X1
	CVTPS2PD	X1, X9          // b, elements 2–3
	DIVPD	X5, X2
	DIVPD	X5, X3
	DIVPD	X5, X8
	DIVPD	X5, X9
	CELLS(X2, BX, DX)
	BLOCK(R8, R9, BX, DX)
	CELLS(X8, R12, R13)
	BLOCK(R10, R11, R12, R13)
	CELLS(X3, BX, DX)
	BLOCK(R8, R9, BX, DX)
	CELLS(X9, R12, R13)
	BLOCK(R10, R11, R12, R13)
	ADDQ	$16, AX

test:
	CMPQ	AX, CX
	JLE	step

done:
	MOVQ	st+64(FP), BX
	MOVQ	R8, 0(BX)
	MOVQ	R9, 8(BX)
	MOVQ	R10, 16(BX)
	MOVQ	R11, 24(BX)
	MOVQ	AX, next+72(FP)
	RET
