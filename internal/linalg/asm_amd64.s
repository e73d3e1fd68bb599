// AVX2+FMA microkernels behind the compute layer, and AVX-512 bodies of the
// two whose outputs are independent lane chains (the RBF row and the tile).
// The feature gates live in asm_amd64.go, the pure-Go twins beside their
// callers; nothing here runs unless detectFMA() proved CPUID support for AVX2,
// FMA and OS ymm state, and the AVX-512 bodies only where detectAVX512() also
// proved AVX512F, AVX512DQ and OS zmm and opmask state.
//
// Every hot loop head sits behind PCALIGN $32, so a loop starts on a 32-byte
// boundary wherever the linker places its function (functions are 32-byte
// aligned on amd64) and its speed does not move with unrelated edits.

#include "go_asm.h"
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

// func tileFMA(a, out *[tileM][]float64, b []float64, k, panels int)
//
// The 6×8 outer-product tile of tile.go, over `panels` consecutive packed
// panels of b (8 columns, k-major, 64k bytes each) with k ≥ 1, panels ≥ 1.
// R8–R13 hold the six a rows, read from the slice headers at 24-byte
// stride; Y0–Y11 the 6×8 outputs of the current panel, two ymm a row. Each
// k step loads the panel's 8 entries into Y12/Y13, broadcasts a_r[k] into
// Y14/Y15 and issues one VFMADD231PD per accumulator, so every output lane
// is the chain s = fma(a_r[k], b_c[k], s) from s = +0, as in tileGo. Row r
// of a panel is stored to out[r] at the panel's column offset BX.
TEXT ·tileFMA(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ 96(AX), R12
	MOVQ 120(AX), R13
	MOVQ out+8(FP), DI
	MOVQ b_base+16(FP), SI
	MOVQ k+40(FP), CX
	MOVQ panels+48(FP), DX
	XORQ BX, BX

tilepanel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ AX, AX

	PCALIGN $32
tilek:
	VMOVUPD (SI), Y12
	VMOVUPD 32(SI), Y13
	VBROADCASTSD (R8)(AX*8), Y14
	VBROADCASTSD (R9)(AX*8), Y15
	VFMADD231PD Y12, Y14, Y0
	VFMADD231PD Y13, Y14, Y1
	VFMADD231PD Y12, Y15, Y2
	VFMADD231PD Y13, Y15, Y3
	VBROADCASTSD (R10)(AX*8), Y14
	VBROADCASTSD (R11)(AX*8), Y15
	VFMADD231PD Y12, Y14, Y4
	VFMADD231PD Y13, Y14, Y5
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7
	VBROADCASTSD (R12)(AX*8), Y14
	VBROADCASTSD (R13)(AX*8), Y15
	VFMADD231PD Y12, Y14, Y8
	VFMADD231PD Y13, Y14, Y9
	VFMADD231PD Y12, Y15, Y10
	VFMADD231PD Y13, Y15, Y11
	ADDQ $64, SI
	INCQ AX
	CMPQ AX, CX
	JNE  tilek

	MOVQ 0(DI), AX
	VMOVUPD Y0, (AX)(BX*1)
	VMOVUPD Y1, 32(AX)(BX*1)
	MOVQ 24(DI), AX
	VMOVUPD Y2, (AX)(BX*1)
	VMOVUPD Y3, 32(AX)(BX*1)
	MOVQ 48(DI), AX
	VMOVUPD Y4, (AX)(BX*1)
	VMOVUPD Y5, 32(AX)(BX*1)
	MOVQ 72(DI), AX
	VMOVUPD Y6, (AX)(BX*1)
	VMOVUPD Y7, 32(AX)(BX*1)
	MOVQ 96(DI), AX
	VMOVUPD Y8, (AX)(BX*1)
	VMOVUPD Y9, 32(AX)(BX*1)
	MOVQ 120(DI), AX
	VMOVUPD Y10, (AX)(BX*1)
	VMOVUPD Y11, 32(AX)(BX*1)
	ADDQ $64, BX
	DECQ DX
	JNZ  tilepanel
	VZEROUPPER
	RET

// func dotFMA(x, y *float64, n int) float64
//
// Linalg's one dot product, with n ≥ 1: Y0–Y3 hold 16 lane chains over the
// 16-element blocks, a 4-wide cleanup continues Y0's, the fold is
// (Y0+Y1)+(Y2+Y3) lanewise and then (l0+l2)+(l1+l3), and the tail is FMAs
// onto the sum. dotGo in vector.go is the same order with math.FMA.
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

	PCALIGN $32
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

	PCALIGN $32
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

// func axpyFMA(alpha float64, x, y *float64, n int)
//
// y[i] = fma(alpha, x[i], y[i]) for i < n, n ≥ 1: four lanes at a time with
// alpha broadcast in Y0, then one element at a time. Every element is one
// rounding, as in Axpy's math.FMA loop.
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

	MOVQ CX, AX
	SHRQ $2, AX
	JZ   axpytail

	PCALIGN $32
axpyloop4:
	VMOVUPD (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  axpyloop4

axpytail:
	ANDQ $3, CX
	JZ   axpydone

axpyloop1:
	VMOVSD (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpyloop1

axpydone:
	VZEROUPPER
	RET

DATA boxLane<>+0(SB)/8, $0
DATA boxLane<>+8(SB)/8, $1
DATA boxLane<>+16(SB)/8, $2
DATA boxLane<>+24(SB)/8, $3
GLOBL boxLane<>(SB), RODATA|NOPTR, $32

// func axpyMaxViolatorFMA(delta float64, x, grad, lambda *float64, n int, c, tol float64) int
//
// One Gauss–Southwell step over n ≥ 1 elements: grad[j] = fma(delta, x[j],
// grad[j]) as in axpyFMA, and the first j of the largest BoxViolation above
// tol, or −1. The violation is branch-free: |g| with the sign cleared by Y2,
// zeroed where (λ ≤ 0 and g ≥ 0) or (λ ≥ c and g ≤ 0), ordered compares, so
// a NaN g stays NaN and a NaN λ zeroes nothing. Lane l of Y4/Y5 keeps the
// best violation (from tol) and its index (from −1) over j ≡ l mod 4, taken
// on a strict greater-than, so each lane holds its first maximum; Y6 holds
// the four current indices. The lanes reduce 4 → 2 → 1, a lane winning on a
// greater value or on an equal one at a smaller index; the n mod 4 tail then
// runs the same compare on lane 0 with larger indices.
TEXT ·axpyMaxViolatorFMA(SB), NOSPLIT, $0-64
	VBROADCASTSD delta+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ grad+16(FP), DI
	MOVQ lambda+24(FP), DX
	MOVQ n+32(FP), CX
	VBROADCASTSD c+40(FP), Y1
	VBROADCASTSD tol+48(FP), Y4
	VPCMPEQQ Y2, Y2, Y2
	VPSRLQ $1, Y2, Y2              // 0x7FF…F: the abs mask
	VXORPD Y3, Y3, Y3
	VPCMPEQQ Y5, Y5, Y5            // best indices −1
	VMOVDQU boxLane<>(SB), Y6      // 0, 1, 2, 3
	MOVQ $4, BX
	VMOVQ BX, X7
	VPBROADCASTQ X7, Y7

	MOVQ CX, AX
	SHRQ $2, AX
	JZ   boxreduce

	PCALIGN $32
boxloop4:
	VMOVUPD (DI), Y8
	VFMADD231PD (SI), Y0, Y8       // g = fma(delta, x, g)
	VMOVUPD Y8, (DI)
	VMOVUPD (DX), Y9
	VCMPPD $0x12, Y3, Y9, Y10      // λ ≤ 0
	VCMPPD $0x1D, Y3, Y8, Y11      // g ≥ 0
	VANDPD Y11, Y10, Y10
	VCMPPD $0x1D, Y1, Y9, Y11      // λ ≥ c
	VCMPPD $0x12, Y3, Y8, Y12      // g ≤ 0
	VANDPD Y12, Y11, Y11
	VORPD Y11, Y10, Y10
	VANDPD Y2, Y8, Y8              // |g|
	VANDNPD Y8, Y10, Y8            // violation
	VCMPPD $0x1E, Y4, Y8, Y12      // violation > best
	VBLENDVPD Y12, Y8, Y4, Y4
	VBLENDVPD Y12, Y6, Y5, Y5
	VPADDQ Y7, Y6, Y6
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ AX
	JNZ  boxloop4

boxreduce:
	VEXTRACTF128 $1, Y4, X8
	VEXTRACTF128 $1, Y5, X9
	VCMPPD $0x1E, X4, X8, X10      // hi > lo
	VCMPPD $0x00, X4, X8, X11      // hi == lo
	VPCMPGTQ X9, X5, X12           // lo index > hi index
	VANDPD X12, X11, X11
	VORPD X11, X10, X10
	VBLENDVPD X10, X8, X4, X4
	VBLENDVPD X10, X9, X5, X5
	VUNPCKHPD X4, X4, X8
	VUNPCKHPD X5, X5, X9
	VCMPPD $0x1E, X4, X8, X10
	VCMPPD $0x00, X4, X8, X11
	VPCMPGTQ X9, X5, X12
	VANDPD X12, X11, X11
	VORPD X11, X10, X10
	VBLENDVPD X10, X8, X4, X4
	VBLENDVPD X10, X9, X5, X5

	ANDQ $3, CX
	JZ   boxdone
	MOVQ $1, BX
	VMOVQ BX, X7

boxtail:
	VMOVSD (DI), X8
	VFMADD231SD (SI), X0, X8
	VMOVSD X8, (DI)
	VMOVSD (DX), X9
	VCMPSD $0x12, X3, X9, X10
	VCMPSD $0x1D, X3, X8, X11
	VANDPD X11, X10, X10
	VCMPSD $0x1D, X1, X9, X11
	VCMPSD $0x12, X3, X8, X12
	VANDPD X12, X11, X11
	VORPD X11, X10, X10
	VANDPD X2, X8, X8
	VANDNPD X8, X10, X8
	VCMPSD $0x1E, X4, X8, X12
	VBLENDVPD X12, X8, X4, X4
	VBLENDVPD X12, X6, X5, X5
	VPADDQ X7, X6, X6
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNZ  boxtail

boxdone:
	VMOVQ X5, AX
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func linearSweepFMA(st *SweepState, active *int, n int) int
//
// One sweep of LinearSweep over n ≥ 1 coordinates, linearSweepGo's loop
// body in the same order. DI holds st, whose fields are read at their
// go_asm.h offsets; SI walks active and R9 is the write pointer of the kept
// coordinates, R8 counts down the coordinates left, R10 is i, R11 row i, R12
// k, BX v, R14 λ and R13 Iter. X9 holds s, X10 Viol, X11 PGMax and X12
// PGMin, which go back to st with Iter at the end; X13 is +0 and X14 the
// abs mask.
//
// Per coordinate: the dot of row i with v is dotFMA's body, lane order and
// all; g = y_i·(η·d + σ·s) + p_i rounds each product and sum. Every compare
// is a VUCOMISD with its branch chosen so that an unordered compare takes
// Go's way: a NaN λ sits inside the box, a NaN g is kept, leaves Viol alone
// and still steps, a NaN δ moves. VMAXSD/VMINSD return their first source only when
// it compares greater (less), which is Go's `if pg > pgMax { pgMax = pg }` on
// NaN and on ±0 alike. The update is λ_i = target, α = δ·y_i, s += α and
// axpyFMA's body for v += α·row i.
TEXT ·linearSweepFMA(SB), NOSPLIT, $0-32
	MOVQ st+0(FP), DI
	MOVQ active+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ SI, R9
	MOVQ SweepState_K(DI), R12
	MOVQ SweepState_V(DI), BX
	MOVQ SweepState_Lambda(DI), R14
	MOVQ SweepState_Iter(DI), R13
	VMOVSD SweepState_S(DI), X9
	VMOVSD SweepState_Viol(DI), X10
	VMOVSD SweepState_PGMax(DI), X11
	VMOVSD SweepState_PGMin(DI), X12
	VXORPD X13, X13, X13
	VPCMPEQQ X14, X14, X14
	VPSRLQ $1, X14, X14            // 0x7FF…F: the abs mask

	PCALIGN $32
sweeploop:
	MOVQ (SI), R10
	MOVQ R10, R11
	IMULQ R12, R11
	SHLQ $3, R11
	ADDQ SweepState_X(DI), R11     // row i = X + 8·i·k

	MOVQ R11, AX
	MOVQ BX, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R12, CX
	SHRQ $4, CX
	JZ   sweepdot4

sweepdot16:
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VFMADD231PD (DX), Y4, Y0
	VFMADD231PD 32(DX), Y5, Y1
	VFMADD231PD 64(DX), Y6, Y2
	VFMADD231PD 96(DX), Y7, Y3
	ADDQ $128, AX
	ADDQ $128, DX
	DECQ CX
	JNZ  sweepdot16

sweepdot4:
	MOVQ R12, CX
	ANDQ $15, CX
	SHRQ $2, CX
	JZ   sweepdotreduce

sweepdot4loop:
	VMOVUPD (AX), Y4
	VFMADD231PD (DX), Y4, Y0
	ADDQ $32, AX
	ADDQ $32, DX
	DECQ CX
	JNZ  sweepdot4loop

sweepdotreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	MOVQ R12, CX
	ANDQ $3, CX
	JZ   sweepgrad

sweepdottail:
	VMOVSD (AX), X4
	VMOVSD (DX), X5
	VFMADD231SD X5, X4, X0
	ADDQ $8, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  sweepdottail

sweepgrad:
	VMULSD SweepState_Eta(DI), X0, X0   // η·d
	VMULSD SweepState_Sigma(DI), X9, X4 // σ·s
	VADDSD X4, X0, X0
	MOVQ SweepState_Y(DI), AX
	VMULSD (AX)(R10*8), X0, X0          // y_i·(η·d + σ·s)
	MOVQ SweepState_P(DI), AX
	VADDSD (AX)(R10*8), X0, X6          // g
	VMOVAPD X6, X7                      // pg = g
	VMOVSD (R14)(R10*8), X8             // λ_i

	VUCOMISD X8, X13
	JCS  sweepnotlow                    // 0 < λ_i, or λ_i is NaN
	VUCOMISD SweepState_ShrinkAbove(DI), X6
	JHI  sweepnext                      // g > ShrinkAbove: shrunk
	VUCOMISD X13, X6
	JLS  sweepkeep                      // g ≤ 0 or NaN: pg = g
	VXORPD X7, X7, X7                   // pg = 0
	JMP  sweepkeep

sweepnotlow:
	VUCOMISD SweepState_C(DI), X8
	JCS  sweepkeep                      // λ_i < C, or NaN: inside
	VMOVSD SweepState_ShrinkBelow(DI), X4
	VUCOMISD X6, X4
	JHI  sweepnext                      // g < ShrinkBelow: shrunk
	VUCOMISD X6, X13
	JLS  sweepkeep                      // g ≥ 0 or NaN: pg = g
	VXORPD X7, X7, X7

sweepkeep:
	MOVQ R10, (R9)
	ADDQ $8, R9
	VMAXSD X11, X7, X11
	VMINSD X12, X7, X12
	VANDPD X14, X7, X4                  // |pg|
	VMAXSD X10, X4, X10
	VMOVSD SweepState_Tol(DI), X5
	VUCOMISD X4, X5
	JCC  sweepnext                      // |pg| ≤ Tol
	CMPQ R13, SweepState_MaxIter(DI)
	JGE  sweepnext                      // Iter at the cap

	MOVQ SweepState_QD(DI), AX
	VMOVSD (AX)(R10*8), X4
	VUCOMISD SweepState_Tau(DI), X4
	JLS  sweepflat                      // QD[i] ≤ τ, or NaN
	VDIVSD X4, X6, X5
	VSUBSD X5, X8, X5                   // λ_i − g/QD[i]
	VUCOMISD X5, X13
	JHI  sweeplo                        // below 0: clamp to 0
	VUCOMISD SweepState_C(DI), X5
	JHI  sweephi                        // above C: clamp to C
	JMP  sweepdelta

sweepflat:
	VUCOMISD X13, X6
	JHI  sweeplo                        // g > 0: the lower face

sweephi:
	VMOVSD SweepState_C(DI), X5
	JMP  sweepdelta

sweeplo:
	VXORPD X5, X5, X5

sweepdelta:
	VSUBSD X8, X5, X4                   // δ = target − λ_i
	VUCOMISD X13, X4
	JNE  sweepstep
	JPC  sweepnext                      // δ == 0: the step rounds to nothing

sweepstep:
	VMOVSD X5, (R14)(R10*8)             // λ_i = target
	MOVQ SweepState_Y(DI), AX
	VMULSD (AX)(R10*8), X4, X4          // α = δ·y_i
	VADDSD X4, X9, X9                   // s += α
	INCQ R13
	VBROADCASTSD X4, Y0
	MOVQ R11, AX
	MOVQ BX, DX
	MOVQ R12, CX
	SHRQ $2, CX
	JZ   sweepaxpytail

sweepaxpy4:
	VMOVUPD (DX), Y1
	VFMADD231PD (AX), Y0, Y1
	VMOVUPD Y1, (DX)
	ADDQ $32, AX
	ADDQ $32, DX
	DECQ CX
	JNZ  sweepaxpy4

sweepaxpytail:
	MOVQ R12, CX
	ANDQ $3, CX
	JZ   sweepnext

sweepaxpy1:
	VMOVSD (DX), X1
	VFMADD231SD (AX), X0, X1
	VMOVSD X1, (DX)
	ADDQ $8, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  sweepaxpy1

sweepnext:
	ADDQ $8, SI
	DECQ R8
	JNZ  sweeploop

	VMOVSD X9, SweepState_S(DI)
	MOVQ R13, SweepState_Iter(DI)
	VMOVSD X10, SweepState_Viol(DI)
	VMOVSD X11, SweepState_PGMax(DI)
	VMOVSD X12, SweepState_PGMin(DI)
	SUBQ active+8(FP), R9
	SHRQ $3, R9
	MOVQ R9, ret+24(FP)
	VZEROUPPER
	RET

// func rbfRowFMA(row, sq *float64, n int, sqX, negGamma float64, tab *[17][4]float64)
//
// row[j] = exp(−γ·max(sqX + sq[j] − 2·row[j], 0)) in place for n elements,
// n a positive multiple of 4, four lanes at a time: the row prologue of
// rbfRowGo, then the exp of ExpNonPosScalar, every instruction with its
// counterpart in the same order. tab is expTab4, every constant of exp.go in
// four lanes: Y12 log₂e, Y11 ln2hi, Y10 ln2lo, Y8 the cutoff and Y9 1 are
// loaded from it once, and the Horner steps read 1/13! … 1/2! as memory
// operands. Y15 holds sqX, Y14 −γ and Y13 +0.
//
// The clamp and the cutoff use ordered compares and an and-not, no
// VMAXPD/VMINPD (which return their second source on an unordered compare):
// dd < 0 is false for NaN and for −0, so both pass through as in Go's
// `if dd < 0 { dd = 0 }`. A NaN x stays NaN through every arithmetic step,
// VCVTPD2DQ turns its n into 0x80000000, which the shift by 52 clears, and
// x < cutoff is false for it, so the final and-not leaves it alone. Lanes
// below the cutoff, −Inf included, compute garbage that the same and-not
// replaces with +0.
TEXT ·rbfRowFMA(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), DI
	MOVQ sq+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD sqX+24(FP), Y15
	VBROADCASTSD negGamma+32(FP), Y14
	MOVQ tab+40(FP), DX

	VXORPD Y13, Y13, Y13
	VMOVUPD 0(DX), Y12
	VMOVUPD 32(DX), Y11
	VMOVUPD 64(DX), Y10
	VMOVUPD 96(DX), Y8
	VMOVUPD 128(DX), Y9
	SHRQ $2, CX

	PCALIGN $32
rbfloop:
	VMOVUPD (DI), Y0               // d = ⟨x, y_j⟩
	VADDPD Y0, Y0, Y0              // 2d, the same bits as 2·d
	VADDPD (SI), Y15, Y1           // sqX + sq[j]
	VSUBPD Y0, Y1, Y0              // dd = (sqX + sq[j]) − 2d
	VCMPPD $0x11, Y13, Y0, Y3      // dd < 0, ordered
	VANDNPD Y0, Y3, Y0             // clamp to +0
	VMULPD Y14, Y0, Y0             // x = −γ·dd
	VCMPPD $0x11, Y8, Y0, Y3       // x < cutoff, ordered
	VMULPD Y12, Y0, Y1             // x·log₂e
	VROUNDPD $8, Y1, Y1            // n = round-to-even, inexact suppressed
	VFNMADD231PD Y11, Y1, Y0       // r = x − n·ln2hi
	VFNMADD231PD Y10, Y1, Y0       // r −= n·ln2lo
	VMOVUPD 160(DX), Y2            // p = 1/13!
	VFMADD213PD 192(DX), Y0, Y2    // p = p·r + 1/12!
	VFMADD213PD 224(DX), Y0, Y2
	VFMADD213PD 256(DX), Y0, Y2
	VFMADD213PD 288(DX), Y0, Y2
	VFMADD213PD 320(DX), Y0, Y2
	VFMADD213PD 352(DX), Y0, Y2
	VFMADD213PD 384(DX), Y0, Y2
	VFMADD213PD 416(DX), Y0, Y2
	VFMADD213PD 448(DX), Y0, Y2
	VFMADD213PD 480(DX), Y0, Y2
	VFMADD213PD 512(DX), Y0, Y2    // … + 1/2!
	VFMADD213PD Y9, Y0, Y2
	VFMADD213PD Y9, Y0, Y2         // p = e^r
	VCVTPD2DQY Y1, X1
	VPMOVSXDQ X1, Y1
	VPSLLQ $52, Y1, Y1
	VPADDQ Y1, Y2, Y2              // p·2ⁿ: n into the exponent field
	VANDNPD Y2, Y3, Y2             // 0 below the cutoff
	VMOVUPD Y2, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  rbfloop

	VZEROUPPER
	RET

// func rbfRowAVX512(row, sq *float64, n int, sqX, negGamma float64, tab *[17]float64)
//
// rbfRowFMA eight lanes at a time, n a positive multiple of 8: the same
// operations in the same order, so every lane gets the same bits. tab is
// expTab, each constant broadcast once: Z12 log₂e, Z11 ln2hi, Z10 ln2lo, Z8
// the cutoff, Z9 1 and Z16–Z27 1/13! … 1/2!, so the Horner steps read no
// memory. Z15 holds sqX, Z14 −γ and Z13 +0.
//
// The two and-nots of rbfRowFMA become ordered compares into K masks, negated
// (NLT_UQ, predicate 0x15, is true for NaN as the and-not keeps NaN) and
// applied with zero-merge, which writes the same +0 the and-not does.
// VRNDSCALEPD $8 is VROUNDPD $8: round to even, inexact suppressed. The
// scale 2ⁿ takes n through VCVTPD2QQ where rbfRowFMA uses VCVTPD2DQ and a
// sign extension: for every n the clamped domain gives, [−1022, 0], both are
// the same int64, and a NaN n becomes 0x8000000000000000 here and
// 0xFFFFFFFF80000000 there, which the shift by 52 clears alike.
TEXT ·rbfRowAVX512(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), DI
	MOVQ sq+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD sqX+24(FP), Z15
	VBROADCASTSD negGamma+32(FP), Z14
	MOVQ tab+40(FP), DX

	VPXORQ Z13, Z13, Z13
	VBROADCASTSD 0(DX), Z12
	VBROADCASTSD 8(DX), Z11
	VBROADCASTSD 16(DX), Z10
	VBROADCASTSD 24(DX), Z8
	VBROADCASTSD 32(DX), Z9
	VBROADCASTSD 40(DX), Z16
	VBROADCASTSD 48(DX), Z17
	VBROADCASTSD 56(DX), Z18
	VBROADCASTSD 64(DX), Z19
	VBROADCASTSD 72(DX), Z20
	VBROADCASTSD 80(DX), Z21
	VBROADCASTSD 88(DX), Z22
	VBROADCASTSD 96(DX), Z23
	VBROADCASTSD 104(DX), Z24
	VBROADCASTSD 112(DX), Z25
	VBROADCASTSD 120(DX), Z26
	VBROADCASTSD 128(DX), Z27
	SHRQ $3, CX

	PCALIGN $32
rbf512loop:
	VMOVUPD (DI), Z0               // d = ⟨x, y_j⟩
	VADDPD Z0, Z0, Z0              // 2d
	VADDPD (SI), Z15, Z1           // sqX + sq[j]
	VSUBPD Z0, Z1, Z0              // dd = (sqX + sq[j]) − 2d
	VCMPPD $0x15, Z13, Z0, K1      // not dd < 0
	VMOVAPD.Z Z0, K1, Z0           // clamp to +0
	VMULPD Z14, Z0, Z0             // x = −γ·dd
	VCMPPD $0x15, Z8, Z0, K2       // not x < cutoff
	VMULPD Z12, Z0, Z1             // x·log₂e
	VRNDSCALEPD $8, Z1, Z1         // n = round-to-even, inexact suppressed
	VFNMADD231PD Z11, Z1, Z0       // r = x − n·ln2hi
	VFNMADD231PD Z10, Z1, Z0       // r −= n·ln2lo
	VMOVAPD Z16, Z2                // p = 1/13!
	VFMADD213PD Z17, Z0, Z2        // p = p·r + 1/12!
	VFMADD213PD Z18, Z0, Z2
	VFMADD213PD Z19, Z0, Z2
	VFMADD213PD Z20, Z0, Z2
	VFMADD213PD Z21, Z0, Z2
	VFMADD213PD Z22, Z0, Z2
	VFMADD213PD Z23, Z0, Z2
	VFMADD213PD Z24, Z0, Z2
	VFMADD213PD Z25, Z0, Z2
	VFMADD213PD Z26, Z0, Z2
	VFMADD213PD Z27, Z0, Z2        // … + 1/2!
	VFMADD213PD Z9, Z0, Z2
	VFMADD213PD Z9, Z0, Z2         // p = e^r
	VCVTPD2QQ Z1, Z1
	VPSLLQ $52, Z1, Z1
	VPADDQ.Z Z1, Z2, K2, Z2        // p·2ⁿ, 0 below the cutoff
	VMOVUPD Z2, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  rbf512loop

	VZEROUPPER
	RET

// func tileAVX512(a, out *[tileM][]float64, b []float64, k, panels int)
//
// tileFMA on zmm: one load takes a whole 8-column panel's k step, so a pass
// runs two panels at once. R8–R13 hold the six a rows and R14 the panel
// stride 64k; Z0–Z11 are the outputs, Z(2r) row r of the first panel and
// Z(2r+1) of the second, as one VFMADD231PD chain each from +0 over k, the
// chain tileFMA and tileGo compute. Each k step loads the two panels' entries
// into Z12/Z13 and broadcasts a_r[k] into Z14/Z15. An odd last panel runs a
// pass of one panel with the six even accumulators.
TEXT ·tileAVX512(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ 96(AX), R12
	MOVQ 120(AX), R13
	MOVQ out+8(FP), DI
	MOVQ b_base+16(FP), SI
	MOVQ k+40(FP), CX
	MOVQ panels+48(FP), DX
	MOVQ CX, R14
	SHLQ $6, R14
	XORQ BX, BX
	CMPQ DX, $2
	JLT  tile512one

tile512pair:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	XORQ AX, AX

	PCALIGN $32
tile512k2:
	VMOVUPD (SI), Z12
	VMOVUPD (SI)(R14*1), Z13
	VBROADCASTSD (R8)(AX*8), Z14
	VBROADCASTSD (R9)(AX*8), Z15
	VFMADD231PD Z12, Z14, Z0
	VFMADD231PD Z13, Z14, Z1
	VFMADD231PD Z12, Z15, Z2
	VFMADD231PD Z13, Z15, Z3
	VBROADCASTSD (R10)(AX*8), Z14
	VBROADCASTSD (R11)(AX*8), Z15
	VFMADD231PD Z12, Z14, Z4
	VFMADD231PD Z13, Z14, Z5
	VFMADD231PD Z12, Z15, Z6
	VFMADD231PD Z13, Z15, Z7
	VBROADCASTSD (R12)(AX*8), Z14
	VBROADCASTSD (R13)(AX*8), Z15
	VFMADD231PD Z12, Z14, Z8
	VFMADD231PD Z13, Z14, Z9
	VFMADD231PD Z12, Z15, Z10
	VFMADD231PD Z13, Z15, Z11
	ADDQ $64, SI
	INCQ AX
	CMPQ AX, CX
	JNE  tile512k2

	ADDQ R14, SI                   // past the second panel
	MOVQ 0(DI), AX
	VMOVUPD Z0, (AX)(BX*1)
	VMOVUPD Z1, 64(AX)(BX*1)
	MOVQ 24(DI), AX
	VMOVUPD Z2, (AX)(BX*1)
	VMOVUPD Z3, 64(AX)(BX*1)
	MOVQ 48(DI), AX
	VMOVUPD Z4, (AX)(BX*1)
	VMOVUPD Z5, 64(AX)(BX*1)
	MOVQ 72(DI), AX
	VMOVUPD Z6, (AX)(BX*1)
	VMOVUPD Z7, 64(AX)(BX*1)
	MOVQ 96(DI), AX
	VMOVUPD Z8, (AX)(BX*1)
	VMOVUPD Z9, 64(AX)(BX*1)
	MOVQ 120(DI), AX
	VMOVUPD Z10, (AX)(BX*1)
	VMOVUPD Z11, 64(AX)(BX*1)
	ADDQ $128, BX
	SUBQ $2, DX
	CMPQ DX, $2
	JGE  tile512pair

tile512one:
	TESTQ DX, DX
	JZ   tile512done
	VPXORQ Z0, Z0, Z0
	VPXORQ Z2, Z2, Z2
	VPXORQ Z4, Z4, Z4
	VPXORQ Z6, Z6, Z6
	VPXORQ Z8, Z8, Z8
	VPXORQ Z10, Z10, Z10
	XORQ AX, AX

	PCALIGN $32
tile512k1:
	VMOVUPD (SI), Z12
	VBROADCASTSD (R8)(AX*8), Z14
	VBROADCASTSD (R9)(AX*8), Z15
	VFMADD231PD Z12, Z14, Z0
	VFMADD231PD Z12, Z15, Z2
	VBROADCASTSD (R10)(AX*8), Z14
	VBROADCASTSD (R11)(AX*8), Z15
	VFMADD231PD Z12, Z14, Z4
	VFMADD231PD Z12, Z15, Z6
	VBROADCASTSD (R12)(AX*8), Z14
	VBROADCASTSD (R13)(AX*8), Z15
	VFMADD231PD Z12, Z14, Z8
	VFMADD231PD Z12, Z15, Z10
	ADDQ $64, SI
	INCQ AX
	CMPQ AX, CX
	JNE  tile512k1

	MOVQ 0(DI), AX
	VMOVUPD Z0, (AX)(BX*1)
	MOVQ 24(DI), AX
	VMOVUPD Z2, (AX)(BX*1)
	MOVQ 48(DI), AX
	VMOVUPD Z4, (AX)(BX*1)
	MOVQ 72(DI), AX
	VMOVUPD Z6, (AX)(BX*1)
	MOVQ 96(DI), AX
	VMOVUPD Z8, (AX)(BX*1)
	MOVQ 120(DI), AX
	VMOVUPD Z10, (AX)(BX*1)

tile512done:
	VZEROUPPER
	RET
