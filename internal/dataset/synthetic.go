package dataset

import (
	"math"
	"math/rand"

	"github.com/ppml-go/ppml/internal/linalg"
)

// Default sample counts matching Section VI of the paper. The HIGGS count is
// the 11,000-row subset the authors actually use, not the full 11M-row file.
const (
	DefaultCancerSize = 569
	DefaultHiggsSize  = 11000
	DefaultOCRSize    = 5620
)

// TwoGaussians generates n samples in k dimensions from two Gaussian classes
// whose means are separated by delta along a random unit direction. With unit
// within-class variance, the Bayes error of the optimal linear separator is
// Φ(−delta/2), which lets callers dial in a target separability.
func TwoGaussians(name string, n, k int, delta float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dir := randomUnit(rng, k)
	x := linalg.NewMatrix(n, k)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		label := 1.0
		if i%2 == 1 {
			label = -1
		}
		y[i] = label
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(label*delta/2*dir[j])
		}
	}
	d := &Dataset{Name: name, X: x, Y: y}
	d.Shuffle(rng)
	return d
}

// SyntheticCancer stands in for the UCI breast-cancer set: 9 feature
// attributes, 569 instances by default, largely linearly separable — a
// centralized SVM reaches ≈95% accuracy with a 50/50 split, matching the
// paper's report. Features carry heterogeneous scales like the original
// cytology measurements (roughly 1–10).
func SyntheticCancer(n int, seed int64) *Dataset {
	if n <= 0 {
		n = DefaultCancerSize
	}
	const k = 9
	rng := rand.New(rand.NewSource(seed))
	dir := randomUnit(rng, k)
	// Per-feature scale mimicking 1–10 graded cytology attributes.
	scale := make([]float64, k)
	for j := range scale {
		scale[j] = 1 + float64(2.5*rng.Float64())
	}
	// delta = 3.29 puts the Bayes error of the optimal separator near 5%.
	const delta = 3.29
	x := linalg.NewMatrix(n, k)
	y := make([]float64, n)
	// ~63% benign like the original (357/569 benign).
	for i := 0; i < n; i++ {
		label := 1.0
		if rng.Float64() < 0.37 {
			label = -1
		}
		y[i] = label
		row := x.Row(i)
		for j := range row {
			row[j] = scale[j] * (5 + rng.NormFloat64() + float64(label*delta/2*dir[j]))
		}
	}
	d := &Dataset{Name: "cancer", X: x, Y: y}
	d.Shuffle(rng)
	return d
}

// SyntheticHiggs stands in for the HIGGS benchmark subset: 28 features,
// 11,000 instances by default, heavily overlapping classes — a centralized
// SVM reaches only ≈70% accuracy, matching the paper. The first 21 features
// are weakly informative "low-level" measurements and the last 7 are
// "high-level" derived features carrying slightly more signal, mirroring the
// structure of the physical data set.
func SyntheticHiggs(n int, seed int64) *Dataset {
	if n <= 0 {
		n = DefaultHiggsSize
	}
	const k = 28
	const lowLevel = 21
	rng := rand.New(rand.NewSource(seed))
	dirLow := randomUnit(rng, lowLevel)
	dirHigh := randomUnit(rng, k-lowLevel)
	// Split the separation budget so total delta ≈ 1.05 → Bayes error ≈ 30%.
	const deltaLow, deltaHigh = 0.55, 0.9
	x := linalg.NewMatrix(n, k)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		label := 1.0
		if i%2 == 1 {
			label = -1
		}
		y[i] = label
		row := x.Row(i)
		for j := 0; j < lowLevel; j++ {
			row[j] = rng.NormFloat64() + float64(label*deltaLow/2*dirLow[j])
		}
		for j := lowLevel; j < k; j++ {
			row[j] = rng.NormFloat64() + float64(label*deltaHigh/2*dirHigh[j-lowLevel])
		}
	}
	d := &Dataset{Name: "higgs", X: x, Y: y}
	d.Shuffle(rng)
	return d
}

// SyntheticOCR stands in for the UCI optical-recognition-of-handwritten-
// digits set: 64 features (8×8 pixel intensities), 5620 instances by default,
// easily separable (≈98% centrally) but with strongly spatially correlated
// features — the property Section VI credits for the slow vertical-case
// convergence. Ten digit prototypes are drawn once from the seed; the binary
// task is even vs. odd digit, and every sample is its prototype plus
// spatially smoothed noise.
func SyntheticOCR(n int, seed int64) *Dataset {
	return SyntheticOCRNoise(n, seed, ocrNoiseAmp)
}

// ocrNoiseAmp calibrates the OCR stand-in so a centralized RBF SVM lands
// near the paper's 98% (Section VI).
const ocrNoiseAmp = 10

// SyntheticOCRNoise exposes the noise amplitude for calibration studies.
func SyntheticOCRNoise(n int, seed int64, amp float64) *Dataset {
	if n <= 0 {
		n = DefaultOCRSize
	}
	const side = 8
	const k = side * side
	rng := rand.New(rand.NewSource(seed))

	prototypes := make([][]float64, 10)
	for d := range prototypes {
		prototypes[d] = digitPrototype(rng, side)
	}

	x := linalg.NewMatrix(n, k)
	y := make([]float64, n)
	raw := make([]float64, k)
	for i := 0; i < n; i++ {
		digit := rng.Intn(10)
		if digit%2 == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		for j := range raw {
			raw[j] = rng.NormFloat64()
		}
		smooth := smooth2D(raw, side)
		row := x.Row(i)
		proto := prototypes[digit]
		for j := range row {
			row[j] = proto[j] + float64(amp*smooth[j])
		}
	}
	d := &Dataset{Name: "ocr", X: x, Y: y}
	d.Shuffle(rng)
	return d
}

// digitPrototype draws a smooth 8×8 intensity pattern: a few random strokes
// (Gaussian blobs along short segments) on an empty grid, normalized to the
// 0–16 intensity range of the original data.
func digitPrototype(rng *rand.Rand, side int) []float64 {
	img := make([]float64, side*side)
	strokes := 3 + rng.Intn(3)
	for s := 0; s < strokes; s++ {
		x0, y0 := float64(rng.Float64()*float64(side-1)), float64(rng.Float64()*float64(side-1))
		x1, y1 := float64(rng.Float64()*float64(side-1)), float64(rng.Float64()*float64(side-1))
		for t := 0.0; t <= 1.0; t += 0.1 {
			cx, cy := x0+float64(t*(x1-x0)), y0+float64(t*(y1-y0))
			for r := 0; r < side; r++ {
				for c := 0; c < side; c++ {
					d2 := float64((float64(r)-cy)*(float64(r)-cy)) + float64((float64(c)-cx)*(float64(c)-cx))
					img[r*side+c] += math.Exp(-d2 / 1.5)
				}
			}
		}
	}
	max := linalg.NormInf(img)
	if max > 0 {
		linalg.Scale(16/max, img)
	}
	return img
}

// smooth2D applies a 3×3 box blur to a side×side grid, producing spatially
// correlated noise.
func smooth2D(grid []float64, side int) []float64 {
	out := make([]float64, len(grid))
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			var sum float64
			var cnt int
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					rr, cc := r+dr, c+dc
					if rr < 0 || rr >= side || cc < 0 || cc >= side {
						continue
					}
					sum += grid[rr*side+cc]
					cnt++
				}
			}
			out[r*side+c] = sum / float64(cnt)
		}
	}
	return out
}

func randomUnit(rng *rand.Rand, k int) []float64 {
	u := make([]float64, k)
	for {
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		if n := linalg.Norm2(u); n > 1e-9 {
			linalg.Scale(1/n, u)
			return u
		}
	}
}
