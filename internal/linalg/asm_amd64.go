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
