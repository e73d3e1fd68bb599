package linalg

// RBFRow turns a row of dots into RBF kernel values in place: given
// row[j] = ⟨x, y_j⟩, sqX = ‖x‖² and sq[j] = ‖y_j‖², it sets
//
//	row[j] = exp(−γ·max(sqX + sq[j] − 2·row[j], 0))
//
// in one pass, the exp being ExpNonPosScalar's. The squared distance is
// clamped at zero so near-duplicate rows cannot produce values above 1
// through cancellation; the clamp is a compare, not a max, so a NaN dot or
// norm stays NaN (NaN < 0 is false) and comes out as NaN instead of as a
// perfect match, and −0 stays −0. sq must hold at least len(row) norms.
//
// rbfRowAVX512 runs groups of eight lanes on AVX-512, rbfRowFMA the groups of
// four after them on AVX2; rbfRowGo is the twin of both, bit for bit, and
// runs the tail of a row, with hasFMA off and off amd64
// (TestRBFRowMatchesTwoPass).
func RBFRow(row []float64, sqX float64, sq []float64, gamma float64) {
	sq = sq[:len(row)]
	i := 0
	if hasFMA && hasAVX512 && len(row) >= 8 {
		i = len(row) &^ 7
		rbfRowAVX512(&row[0], &sq[0], i, sqX, -gamma, &expTab)
	}
	if n := (len(row) - i) &^ 3; hasFMA && n > 0 {
		rbfRowFMA(&row[i], &sq[i], n, sqX, -gamma, &expTab4)
		i += n
	}
	rbfRowGo(row[i:], sqX, sq[i:], gamma)
}

// rbfRowGo is rbfRowFMA's Go twin over len(row) ≤ len(sq) elements. The
// conversion of 2·d keeps a compiler that fuses multiply-adds from folding it
// into the subtraction, which would round differently when 2·d overflows.
func rbfRowGo(row []float64, sqX float64, sq []float64, gamma float64) {
	sq = sq[:len(row)]
	for j, d := range row {
		dd := sqX + sq[j] - float64(2*d)
		if dd < 0 {
			dd = 0
		}
		row[j] = ExpNonPosScalar(-gamma * dd)
	}
}
