//go:build amd64

package linalg

// cpuidAsm executes CPUID with the given EAX/ECX arguments.
func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (extended control register 0).
func xgetbvAsm() (eax, edx uint32)

// tileFMA is the AVX2 body of tileGo, with the same contract and the same
// bits. Callers must have checked hasFMA, k ≥ 1 and panels ≥ 1. The noescape
// directive keeps the caller's row arrays and edge buffer on its stack;
// without it every tile heap-allocates them (scripts/check.sh gates on this).
//
//go:noescape
func tileFMA(a, out *[tileM][]float64, b []float64, k, panels int)

// dotFMA is the AVX2 body of Dot over n elements, the same bits as dotGo.
// Callers must have checked hasFMA and n ≥ 1.
//
//go:noescape
func dotFMA(x, y *float64, n int) float64

// axpyFMA is the AVX2 body of Axpy over n elements, the same bits as its
// math.FMA loop. Callers must have checked hasFMA and n ≥ 1.
//
//go:noescape
func axpyFMA(alpha float64, x, y *float64, n int)

// axpyMaxViolatorFMA is the AVX2 body of AxpyMaxViolator over n elements,
// the same grad bits and the same index as axpyMaxViolatorGo. Callers must
// have checked hasFMA and n ≥ 1.
//
//go:noescape
func axpyMaxViolatorFMA(delta float64, x, grad, lambda *float64, n int, c, tol float64) int

// linearSweepFMA is the AVX2 body of LinearSweep over the n coordinates at
// active, the same bits as linearSweepGo; it returns kept. Callers must have
// checked hasFMA and n ≥ 1. The noescape directive keeps the caller's
// SweepState on its stack.
//
//go:noescape
func linearSweepFMA(st *SweepState, active *int, n int) int

// rbfRowFMA is the AVX2 body of RBFRow over n elements, n a positive
// multiple of 4: the same operations as rbfRowGo, the same bits. negGamma is
// −γ and tab is expTab4. Callers must have checked hasFMA.
//
//go:noescape
func rbfRowFMA(row, sq *float64, n int, sqX, negGamma float64, tab *[17][4]float64)

// tileAVX512 is the AVX-512 body of tileGo, tileFMA's contract on zmm
// registers, two panels a pass. Callers must have checked hasAVX512, k ≥ 1
// and panels ≥ 1.
//
//go:noescape
func tileAVX512(a, out *[tileM][]float64, b []float64, k, panels int)

// rbfRowAVX512 is the AVX-512 body of RBFRow over n elements, n a positive
// multiple of 8: rbfRowFMA's operations in eight lanes, the same bits. tab is
// expTab. Callers must have checked hasAVX512.
//
//go:noescape
func rbfRowAVX512(row, sq *float64, n int, sqX, negGamma float64, tab *[17]float64)

// hasFMA gates the assembly microkernels. It is a variable, not a constant,
// so tests can force the pure-Go tile path and equivalence-check the two.
var hasFMA = detectFMA()

// detectFMA reports whether the CPU and OS support the AVX2+FMA kernels:
// CPUID must advertise OSXSAVE, AVX, FMA and AVX2, and XCR0 must show the OS
// saves xmm+ymm state on context switch.
func detectFMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 || ecx1&fmaBit == 0 {
		return false
	}
	if xlo, _ := xgetbvAsm(); xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// hasAVX512 selects the AVX-512 bodies of the tile and the RBF row over their
// AVX2 ones. The kernels run them only while hasFMA is also set, so turning
// hasFMA off forces every kernel onto its Go twin. Like hasFMA it is a
// variable for the tests.
var hasAVX512 = avx512Missing == ""

// avx512Missing names the first feature the AVX-512 bodies need that this
// host lacks, or is empty; the tests' skip messages quote it.
var avx512Missing = detectAVX512()

// detectAVX512 checks for the AVX-512 bodies' features: the AVX2+FMA ones
// (which also prove CPUID leaf 7 and XGETBV are there), AVX512F and AVX512DQ
// (for VCVTPD2QQ) in CPUID leaf 7, and the opmask, ZMM_Hi256 and Hi16_ZMM
// state the OS must save, besides xmm and ymm, in XCR0.
func detectAVX512() string {
	if !hasFMA {
		return "AVX2 and FMA"
	}
	const (
		avx512fBit  = 1 << 16
		avx512dqBit = 1 << 17
		xcr0ZMM     = 0xE6
	)
	_, ebx7, _, _ := cpuidAsm(7, 0)
	xlo, _ := xgetbvAsm()
	switch {
	case ebx7&avx512fBit == 0:
		return "AVX512F (CPUID leaf 7 EBX bit 16)"
	case ebx7&avx512dqBit == 0:
		return "AVX512DQ (CPUID leaf 7 EBX bit 17)"
	case xlo&xcr0ZMM != xcr0ZMM:
		return "OS-saved opmask and zmm state (XCR0 & 0xE6)"
	}
	return ""
}
