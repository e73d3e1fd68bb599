package linalg

import "math"

// The one exponential of the compute layer: exp over non-positive arguments,
// which is all the RBF kernel transform −γ‖x−y‖² ever asks for. It runs
// inside RBFRow (rbfrow.go), on the argument the row prologue just formed, and
// alone in ExpNonPosScalar, which RBFRow's Go twin and RBF.Eval call.
//
// Contract, in RBFRow and in the scalar form alike:
//
//   - domain x ≤ 0 (and NaN); the row prologue clamps the squared distance
//     at zero, so nothing else reaches it;
//   - on [expCutoff, 0] the result is within 2 ulp of math.Exp;
//   - exp(0) = exp(−0) = 1 exactly;
//   - x < expCutoff, −Inf included, returns exactly 0: every nonzero result
//     is a normal double, so the final exponent add cannot wrap;
//   - NaN in, NaN out;
//   - a value depends on nothing but its argument — not the lane it fell in,
//     its offset in the row, the worker count, hasFMA or the platform.
//
// The algorithm is math.Exp's range reduction with a longer polynomial in
// place of its rational form, so that every step is a fused multiply-add that
// AVX2 has four lanes of: n = round-to-even(x·log₂e); r = x − n·ln2hi −
// n·ln2lo with math.Exp's split of ln 2 (|r| ≤ ½ln 2 up to rounding);
// e^r as the degree-13 Taylor polynomial in Horner form (remainder
// r¹⁴/14! < 5e-18, under a twentieth of an ulp); then 2ⁿ by adding n to the
// exponent field. rbfRowFMA runs exactly these operations four lanes at a
// time; ExpNonPosScalar is its twin, bit for bit (math.FMA and
// math.RoundToEven round once, like the instructions they stand for).

const (
	// expCutoff is the smallest argument with a nonzero result. At −708 n is
	// −1021 and e^r ≥ 2^-½, so the scaled result keeps a biased exponent ≥ 1.
	expCutoff = -708.0
	expLog2e  = 1.44269504088896338700e+00
	expLn2Hi  = 6.93147180369123816490e-01
	expLn2Lo  = 1.90821492927058770002e-10
)

// expTab is every constant of the algorithm, in the layout the assembly
// reads: the four above, then 1 (Horner's last two coefficients, 1/1! and
// 1/0!), then 1/k! for k = 13 down to 2 in the order Horner consumes them.
var expTab = [17]float64{
	expLog2e, expLn2Hi, expLn2Lo, expCutoff, 1,
	1.0 / 6227020800, 1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800,
	1.0 / 362880, 1.0 / 40320, 1.0 / 5040, 1.0 / 720,
	1.0 / 120, 1.0 / 24, 1.0 / 6, 1.0 / 2,
}

// expTab4 is expTab with every constant in four lanes, so that the assembly
// reads each as one 256-bit memory operand.
var expTab4 = func() (t [len(expTab)][4]float64) {
	for i, c := range expTab {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

// ExpNonPosScalar returns exp(x) for x ≤ 0 under the contract above.
func ExpNonPosScalar(x float64) float64 {
	if x != x {
		return x
	}
	if x < expCutoff {
		return 0
	}
	n := math.RoundToEven(x * expLog2e)
	r := math.FMA(-n, expLn2Hi, x)
	r = math.FMA(-n, expLn2Lo, r)
	p := expTab[5]
	for _, c := range expTab[6:] {
		p = math.FMA(p, r, c)
	}
	p = math.FMA(p, r, 1)
	p = math.FMA(p, r, 1)
	return math.Float64frombits(math.Float64bits(p) + uint64(int64(n))<<52)
}
