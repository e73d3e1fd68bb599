// AVX2+FMA microkernels behind the tiled matmul path. The feature gate and
// the pure-Go fallbacks live in asm_amd64.go / tile.go; nothing here runs
// unless detectFMA() proved CPUID support for AVX2, FMA and OS ymm state.

#include "textflag.h"

// func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotTile2x4FMA(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)
//
// Computes the 2×4 dot tile out[r*4+c] = Σ_k a_r[k]·b_c[k] over n elements.
// Eight ymm accumulators (Y0–Y7) stay live across the whole k loop; each
// iteration issues 6 vector loads and 8 FMAs, so the loop is FMA-port bound
// at ~8 multiply-adds per cycle instead of the ~1 the scalar kernel reaches.
// Lanes are folded and the scalar remainder applied before the store, so the
// result is deterministic for a given n.
TEXT ·dotTile2x4FMA(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ b0+16(FP), R10
	MOVQ b1+24(FP), R11
	MOVQ b2+32(FP), R12
	MOVQ b3+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ out+56(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $2, AX
	JZ   tilereduce

tileloop:
	VMOVUPD (R8), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R11), Y11
	VMOVUPD (R12), Y12
	VMOVUPD (R13), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ AX
	JNZ  tileloop

tilereduce:
	// Fold each 4-lane accumulator down to its low scalar lane.
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VUNPCKHPD X0, X0, X8
	VADDSD X8, X0, X0

	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VUNPCKHPD X1, X1, X8
	VADDSD X8, X1, X1

	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VUNPCKHPD X2, X2, X8
	VADDSD X8, X2, X2

	VEXTRACTF128 $1, Y3, X8
	VADDPD X8, X3, X3
	VUNPCKHPD X3, X3, X8
	VADDSD X8, X3, X3

	VEXTRACTF128 $1, Y4, X8
	VADDPD X8, X4, X4
	VUNPCKHPD X4, X4, X8
	VADDSD X8, X4, X4

	VEXTRACTF128 $1, Y5, X8
	VADDPD X8, X5, X5
	VUNPCKHPD X5, X5, X8
	VADDSD X8, X5, X5

	VEXTRACTF128 $1, Y6, X8
	VADDPD X8, X6, X6
	VUNPCKHPD X6, X6, X8
	VADDSD X8, X6, X6

	VEXTRACTF128 $1, Y7, X8
	VADDPD X8, X7, X7
	VUNPCKHPD X7, X7, X8
	VADDSD X8, X7, X7

	ANDQ $3, CX
	JZ   tilestore

tiletail:
	VMOVSD (R8), X8
	VMOVSD (R9), X9
	VMOVSD (R10), X10
	VFMADD231SD X10, X8, X0
	VFMADD231SD X10, X9, X4
	VMOVSD (R11), X11
	VFMADD231SD X11, X8, X1
	VFMADD231SD X11, X9, X5
	VMOVSD (R12), X12
	VFMADD231SD X12, X8, X2
	VFMADD231SD X12, X9, X6
	VMOVSD (R13), X13
	VFMADD231SD X13, X8, X3
	VFMADD231SD X13, X9, X7
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  tiletail

tilestore:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VMOVSD X4, 32(DI)
	VMOVSD X5, 40(DI)
	VMOVSD X6, 48(DI)
	VMOVSD X7, 56(DI)
	VZEROUPPER
	RET

// func dotFMA(x, y *float64, n int) float64
//
// Vectorized dot product: four independent ymm accumulator chains over a
// 16-element main loop (load-port bound at ~4 multiply-adds per cycle), then
// a 4-wide cleanup loop and a scalar tail. Deterministic for a given n.
TEXT ·dotFMA(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), R8
	MOVQ y+8(FP), R9
	MOVQ n+16(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, AX
	SHRQ $4, AX
	JZ   dotvec4

dotloop16:
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VMOVUPD 64(R8), Y6
	VMOVUPD 96(R8), Y7
	VFMADD231PD (R9), Y4, Y0
	VFMADD231PD 32(R9), Y5, Y1
	VFMADD231PD 64(R9), Y6, Y2
	VFMADD231PD 96(R9), Y7, Y3
	ADDQ $128, R8
	ADDQ $128, R9
	DECQ AX
	JNZ  dotloop16

dotvec4:
	MOVQ CX, AX
	ANDQ $15, AX
	SHRQ $2, AX
	JZ   dotreduce

dotloop4:
	VMOVUPD (R8), Y4
	VFMADD231PD (R9), Y4, Y0
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ AX
	JNZ  dotloop4

dotreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0

	ANDQ $3, CX
	JZ   dotdone

dottail:
	VMOVSD (R8), X4
	VMOVSD (R9), X5
	VFMADD231SD X5, X4, X0
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  dottail

dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func expNonPosFMA(x *float64, n int, tab *[17]float64)
//
// x[i] = exp(x[i]) in place for n elements, n a positive multiple of 4, four
// lanes at a time; the algorithm, the contract and the layout of tab are in
// exp.go, and every instruction below has its counterpart, in the same
// order, in ExpNonPosScalar. Y4–Y8 hold log₂e, ln2hi, ln2lo, the cutoff and
// 1; Y9–Y15 the Taylor coefficients 1/13! … 1/7!; the five after that are
// broadcast from tab as Horner reaches them.
//
// NaN and range handling uses no VMAXPD/VMINPD (which return their second
// source on an unordered compare): a NaN lane stays NaN through every
// arithmetic step, VCVTPD2DQ turns its n into 0x80000000, which the shift by
// 52 clears, and the ordered compare cutoff > x is false for it, so the final
// and-not leaves it alone. Lanes below the cutoff, −Inf included, compute
// garbage that the same and-not replaces with +0.
TEXT ·expNonPosFMA(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ tab+16(FP), SI

	VBROADCASTSD 0(SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7
	VBROADCASTSD 32(SI), Y8
	VBROADCASTSD 40(SI), Y9
	VBROADCASTSD 48(SI), Y10
	VBROADCASTSD 56(SI), Y11
	VBROADCASTSD 64(SI), Y12
	VBROADCASTSD 72(SI), Y13
	VBROADCASTSD 80(SI), Y14
	VBROADCASTSD 88(SI), Y15
	SHRQ $2, CX

exploop:
	VMOVUPD (DI), Y0
	VMULPD Y4, Y0, Y1              // x·log₂e
	VROUNDPD $8, Y1, Y1            // n = round-to-even, inexact suppressed
	VFNMADD231PD Y5, Y1, Y0        // r = x − n·ln2hi
	VFNMADD231PD Y6, Y1, Y0        // r −= n·ln2lo
	VMOVAPD Y9, Y2                 // p = 1/13!
	VFMADD213PD Y10, Y0, Y2        // p = p·r + 1/12!
	VFMADD213PD Y11, Y0, Y2
	VFMADD213PD Y12, Y0, Y2
	VFMADD213PD Y13, Y0, Y2
	VFMADD213PD Y14, Y0, Y2
	VFMADD213PD Y15, Y0, Y2        // … + 1/7!
	VBROADCASTSD 96(SI), Y3
	VFMADD213PD Y3, Y0, Y2
	VBROADCASTSD 104(SI), Y3
	VFMADD213PD Y3, Y0, Y2
	VBROADCASTSD 112(SI), Y3
	VFMADD213PD Y3, Y0, Y2
	VBROADCASTSD 120(SI), Y3
	VFMADD213PD Y3, Y0, Y2
	VBROADCASTSD 128(SI), Y3
	VFMADD213PD Y3, Y0, Y2         // … + 1/2!
	VFMADD213PD Y8, Y0, Y2
	VFMADD213PD Y8, Y0, Y2         // p = e^r
	VCVTPD2DQY Y1, X3
	VPMOVSXDQ X3, Y3
	VPSLLQ $52, Y3, Y3
	VPADDQ Y3, Y2, Y2              // p·2ⁿ: n into the exponent field
	VCMPPD $0x1E, (DI), Y7, Y3     // cutoff > x, ordered: false for NaN
	VANDNPD Y2, Y3, Y2             // 0 below the cutoff
	VMOVUPD Y2, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  exploop

	VZEROUPPER
	RET
