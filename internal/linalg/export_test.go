package linalg

// TileM is the tile's row count, for tests outside the package that shape
// their inputs around its edges.
const TileM = tileM

// SetFMA switches the assembly kernels on or off for tests outside the
// package and returns the previous setting. Only a setting SetFMA returned
// may be restored as true.
func SetFMA(on bool) bool {
	prev := hasFMA
	hasFMA = on
	return prev
}
