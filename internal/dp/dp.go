// Package dp implements ε-differentially-private release of linear models
// by output perturbation, the mechanism of Chaudhuri & Monteleoni (NIPS
// 2008) / Chaudhuri, Monteleoni & Sarwate (JMLR 2011) that the paper's
// related-work section discusses as the randomization-based alternative to
// its cryptographic approach.
//
// For the minimizer of a strongly convex regularized ERM objective
// (1/n)Σℓ(w; xᵢ, yᵢ) + (Λ/2)‖w‖² with a 1-Lipschitz loss over inputs of
// norm ≤ 1, the L2 sensitivity to replacing one record is 2/(nΛ). Adding a
// noise vector with density ∝ exp(−ε‖b‖/sensitivity) makes the released w
// ε-differentially private. The C-parameterized SVM of this repository is
// that objective with Λ = 1/(nC), giving sensitivity 2C.
//
// Combining output perturbation with the consensus framework yields a hybrid
// threat model: the secure summation protocol hides individual learners'
// iterates from each other during training, while the DP noise bounds what
// the *final published model* reveals about any single training record —
// the second disclosure channel Section V's analysis points out.
package dp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrBadParams indicates unusable privacy parameters.
var ErrBadParams = errors.New("dp: bad parameters")

// SVMSensitivity returns the L2 sensitivity 2C of the C-parameterized SVM
// minimizer under single-record replacement (inputs assumed scaled into the
// unit ball; larger inputs scale the guarantee accordingly).
func SVMSensitivity(c float64) float64 { return 2 * c }

// PerturbVector adds ε-DP output-perturbation noise to w in place: a vector
// with density ∝ exp(−ε‖b‖/sensitivity), sampled as a uniform direction
// with Gamma(dim, sensitivity/ε)-distributed norm. random defaults to
// crypto/rand.
func PerturbVector(w []float64, epsilon, sensitivity float64, random io.Reader) error {
	if epsilon <= 0 {
		return fmt.Errorf("%w: epsilon = %g, want > 0", ErrBadParams, epsilon)
	}
	if sensitivity <= 0 {
		return fmt.Errorf("%w: sensitivity = %g, want > 0", ErrBadParams, sensitivity)
	}
	if len(w) == 0 {
		return fmt.Errorf("%w: empty vector", ErrBadParams)
	}
	if random == nil {
		random = rand.Reader
	}
	// Direction: normalized Gaussian vector.
	dir := make([]float64, len(w))
	var norm float64
	for {
		for i := range dir {
			g, err := gaussian(random)
			if err != nil {
				return err
			}
			dir[i] = g
		}
		norm = 0
		for _, v := range dir {
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm > 1e-12 {
			break
		}
	}
	// Magnitude: Gamma(dim, sensitivity/ε) as a sum of dim exponentials.
	theta := sensitivity / epsilon
	var mag float64
	for i := 0; i < len(w); i++ {
		e, err := exponential(random)
		if err != nil {
			return err
		}
		mag += e
	}
	mag *= theta
	for i := range w {
		w[i] += mag * dir[i] / norm
	}
	return nil
}

// uniform01 draws a float64 in (0, 1).
func uniform01(random io.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(random, buf[:]); err != nil {
		return 0, fmt.Errorf("dp randomness: %w", err)
	}
	// 53 random mantissa bits, then shift into (0,1].
	u := float64(binary.LittleEndian.Uint64(buf[:])>>11) / (1 << 53)
	if u == 0 {
		u = 0.5 / (1 << 53)
	}
	return u, nil
}

// exponential draws Exp(1).
func exponential(random io.Reader) (float64, error) {
	u, err := uniform01(random)
	if err != nil {
		return 0, err
	}
	return -math.Log(u), nil
}

// gaussian draws a standard normal via Box–Muller.
func gaussian(random io.Reader) (float64, error) {
	u1, err := uniform01(random)
	if err != nil {
		return 0, err
	}
	u2, err := uniform01(random)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2), nil
}
