//go:build amd64 && !race

#include "textflag.h"

// CELLS8 quantizes one gathered block of 8 chains (x: each quadword two
// float32s) into the cells of its two halves, lo and hi (ylo/yhi are their
// lower halves): widen, divide by ε in Z22, floor, convert. t is scratch.
#define CELLS8(x, ylo, lo, yhi, hi, t) \
	VPMOVQD	x, ylo; VPSRLQ $32, x, t; VPMOVQD t, yhi; \
	VCVTPS2PD	ylo, lo; VCVTPS2PD yhi, hi; \
	VDIVPD	Z22, lo, lo; VDIVPD Z22, hi, hi; \
	VRNDSCALEPD	$9, lo, lo; VRNDSCALEPD $9, hi, hi; \
	VCVTTPD2QQ	lo, lo; VCVTTPD2QQ hi, hi

// FMIX8 is fmix64 on the 8 lanes of h in both groups (a, b), with ta and tb
// as scratch; its multipliers are Z29 and Z28.
#define FMIX8(ha, ta, hb, tb) \
	VPSRLQ	$33, ha, ta; VPSRLQ $33, hb, tb; VPXORQ ta, ha, ha; VPXORQ tb, hb, hb; \
	VPMULLQ	Z29, ha, ha; VPMULLQ Z29, hb, hb; \
	VPSRLQ	$33, ha, ta; VPSRLQ $33, hb, tb; VPXORQ ta, ha, ha; VPXORQ tb, hb, hb; \
	VPMULLQ	Z28, ha, ha; VPMULLQ Z28, hb, hb; \
	VPSRLQ	$33, ha, ta; VPSRLQ $33, hb, tb; VPXORQ ta, ha, ha; VPXORQ tb, hb, hb

// BLOCK8 is murmur3.Mix(h1, h2, k1, k2) then murmur3.Fin(h1, h2, 16) on the
// 8 chains of group A (h1a, h2a, k1a, k2a) and of group B, one instruction
// of each in turn, so one group's latency hides the other's. c1 and c2 are
// Z31 and Z30, Mix's adders Z27 and Z26, 16 is Z25; ×5 is shift-and-add.
// The k registers are clobbered.
#define BLOCK8(h1a, h2a, k1a, k2a, h1b, h2b, k1b, k2b) \
	VPMULLQ	Z31, k1a, k1a; VPMULLQ Z31, k1b, k1b; VPMULLQ Z30, k2a, k2a; VPMULLQ Z30, k2b, k2b; \
	VPROLQ	$31, k1a, k1a; VPROLQ $31, k1b, k1b; VPROLQ $33, k2a, k2a; VPROLQ $33, k2b, k2b; \
	VPMULLQ	Z30, k1a, k1a; VPMULLQ Z30, k1b, k1b; VPMULLQ Z31, k2a, k2a; VPMULLQ Z31, k2b, k2b; \
	VPXORQ	k1a, h1a, h1a; VPXORQ k1b, h1b, h1b; \
	VPROLQ	$27, h1a, h1a; VPROLQ $27, h1b, h1b; \
	VPADDQ	h2a, h1a, h1a; VPADDQ h2b, h1b, h1b; \
	VPSLLQ	$2, h1a, k1a; VPSLLQ $2, h1b, k1b; VPADDQ k1a, h1a, h1a; VPADDQ k1b, h1b, h1b; \
	VPADDQ	Z27, h1a, h1a; VPADDQ Z27, h1b, h1b; \
	VPXORQ	k2a, h2a, h2a; VPXORQ k2b, h2b, h2b; \
	VPROLQ	$31, h2a, h2a; VPROLQ $31, h2b, h2b; \
	VPADDQ	h1a, h2a, h2a; VPADDQ h1b, h2b, h2b; \
	VPSLLQ	$2, h2a, k2a; VPSLLQ $2, h2b, k2b; VPADDQ k2a, h2a, h2a; VPADDQ k2b, h2b, h2b; \
	VPADDQ	Z26, h2a, h2a; VPADDQ Z26, h2b, h2b; \
	VPXORQ	Z25, h1a, h1a; VPXORQ Z25, h1b, h1b; VPXORQ Z25, h2a, h2a; VPXORQ Z25, h2b, h2b; \
	VPADDQ	h2a, h1a, h1a; VPADDQ h2b, h1b, h1b; VPADDQ h1a, h2a, h2a; VPADDQ h1b, h2b, h2b; \
	FMIX8(h1a, k1a, h1b, k1b); FMIX8(h2a, k2a, h2b, k2b); \
	VPADDQ	h2a, h1a, h1a; VPADDQ h2b, h1b, h1b; VPADDQ h1a, h2a, h2a; VPADDQ h1b, h2b, h2b

// GATHER8 loads the quadword at disp(base) of each of a group's 8 chains
// (idx: their offsets from base) into dst, refilling the mask k first;
// SCATTER8 stores them back.
#define GATHER8(disp, base, idx, k, dst) \
	KXNORB	k, k, k; VPGATHERQQ disp(base)(idx*1), k, dst
#define SCATTER8(src, k, disp, base, idx) \
	KXNORB	k, k, k; VPSCATTERQQ src, k, disp(base)(idx*1)

// LANES8 sets z to 0…7, one quadword each: a group's chain numbers.
#define LANES8(z, x) \
	MOVQ	$0x0706050403020100, AX; MOVQ AX, x; VPMOVZXBQ x, z

// func hashWideF32(eps float64, safe uint32, data []byte, chunk, off, lim int, st *[16]murmur3.Chain) (next int)
//
// hashChunkF32's loop on 16 chunks at once, chunk j at data[j·chunk:], 16
// bytes of each per step from off: the chains are two groups of 8, A (0–7)
// and B (8–15), whose h1 and h2 stay in Z16–Z19 for the whole call. A step
// gathers each group's two quadwords (index vectors j·chunk in Z21 and Z20),
// tests all 64 magnitudes against safe (VPCMPUD, four masks, one KORTESTW
// branch), quantizes (VCVTPS2PD, VDIVPD by ε — Go's DIVSD, eight lanes at a
// time — VRNDSCALEPD $9 (floor), VCVTTPD2QQ) and runs two chained blocks per
// chain. It stops at the last whole step before lim or at the first step
// whose guard fails, and returns that offset.
TEXT ·hashWideF32(SB), NOSPLIT, $0-80
	MOVQ	$0x87c37b91114253d5, AX
	VPBROADCASTQ	AX, Z31         // c1
	MOVQ	$0x4cf5ad432745937f, AX
	VPBROADCASTQ	AX, Z30         // c2
	MOVQ	$0xff51afd7ed558ccd, AX
	VPBROADCASTQ	AX, Z29         // fmix's first multiplier
	MOVQ	$0xc4ceb9fe1a85ec53, AX
	VPBROADCASTQ	AX, Z28         // fmix's second
	MOVQ	$0x52dce729, AX
	VPBROADCASTQ	AX, Z27
	MOVQ	$0x38495ab5, AX
	VPBROADCASTQ	AX, Z26
	MOVQ	$16, AX
	VPBROADCASTQ	AX, Z25
	MOVL	$0x7fffffff, AX
	VPBROADCASTD	AX, Z24         // clears the sign bit of every lane
	MOVL	safe+8(FP), AX
	VPBROADCASTD	AX, Z23
	MOVQ	eps+0(FP), AX
	VPBROADCASTQ	AX, Z22
	LANES8(Z12, X12)
	MOVQ	chunk+40(FP), AX
	VPBROADCASTQ	AX, Z21
	VPMULLQ	Z12, Z21, Z21           // group A: j·chunk
	SHLQ	$3, AX
	VPBROADCASTQ	AX, Z20
	VPADDQ	Z21, Z20, Z20           // group B: (8+j)·chunk
	VPSLLQ	$4, Z12, Z12            // chain j's H1 is at 16·j in st
	MOVQ	st+64(FP), BX
	GATHER8(0, BX, Z12, K1, Z16)
	GATHER8(8, BX, Z12, K2, Z17)
	GATHER8(128, BX, Z12, K3, Z18)
	GATHER8(136, BX, Z12, K4, Z19)
	MOVQ	data_base+16(FP), DI
	MOVQ	off+48(FP), AX
	MOVQ	lim+56(FP), CX
	SUBQ	$16, CX                 // the last offset a whole step starts at
	JMP	test

step:
	LEAQ	(DI)(AX*1), SI
	GATHER8(0, SI, Z21, K1, Z0)
	GATHER8(8, SI, Z21, K2, Z1)
	GATHER8(0, SI, Z20, K3, Z2)
	GATHER8(8, SI, Z20, K4, Z3)
	VPANDD	Z24, Z0, Z12
	VPANDD	Z24, Z1, Z13
	VPANDD	Z24, Z2, Z14
	VPANDD	Z24, Z3, Z15
	VPCMPUD	$6, Z23, Z12, K1        // magnitude > safe
	VPCMPUD	$6, Z23, Z13, K2
	VPCMPUD	$6, Z23, Z14, K3
	VPCMPUD	$6, Z23, Z15, K4
	KORW	K1, K2, K1
	KORW	K3, K4, K3
	KORTESTW	K1, K3
	JNZ	done                    // the caller takes this step on the cell path
	CELLS8(Z0, Y4, Z4, Y5, Z5, Z12)
	CELLS8(Z2, Y8, Z8, Y9, Z9, Z13)
	CELLS8(Z1, Y6, Z6, Y7, Z7, Z14)
	CELLS8(Z3, Y10, Z10, Y11, Z11, Z15)
	BLOCK8(Z16, Z17, Z4, Z5, Z18, Z19, Z8, Z9)
	BLOCK8(Z16, Z17, Z6, Z7, Z18, Z19, Z10, Z11)
	ADDQ	$16, AX

test:
	CMPQ	AX, CX
	JLE	step

done:
	MOVQ	AX, next+72(FP)
	LANES8(Z12, X12)
	VPSLLQ	$4, Z12, Z12
	SCATTER8(Z16, K1, 0, BX, Z12)
	SCATTER8(Z17, K2, 8, BX, Z12)
	SCATTER8(Z18, K3, 128, BX, Z12)
	SCATTER8(Z19, K4, 136, BX, Z12)
	VZEROUPPER
	RET

// func cpuid(leaf uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL	leaf+0(FP), AX
	XORL	CX, CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL	CX, CX
	XGETBV
	MOVL	AX, ret+0(FP)
	RET
