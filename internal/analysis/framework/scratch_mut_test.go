package framework

import "testing"

// TestScratchMutationSummary pins the mutation summaries: a helper that
// writes taint through a pointer parameter taints the caller's argument.
func TestScratchMutationSummary(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

func fill(dst *[]int) {
	*dst = source()
}

func use() {
	var buf []int
	fill(&buf)
	sink(buf)
}
`
	got := sinkArgTaints(t, src)
	if got[13] != 1 {
		t.Errorf("mutation through pointer parameter not propagated: taint=%d, want 1", got[13])
	}
}
