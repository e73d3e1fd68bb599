//go:build !amd64

package linalg

// hasFMA is always false off amd64: the tiled kernels use their pure-Go
// bodies, which compute the same sums.
var hasFMA = false

func dotTile2x4FMA(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64) {
	panic("linalg: dotTile2x4FMA called without FMA support")
}

func dotFMA(x, y *float64, n int) float64 {
	panic("linalg: dotFMA called without FMA support")
}

func expNonPosFMA(x *float64, n int, tab *[17]float64) {
	panic("linalg: expNonPosFMA called without FMA support")
}
