package mathutil

import (
	"math/bits"
	"testing"
)

// TestPSPlanCost pins the schedule at the degrees the repository uses and
// on both sides of every change of shape, and its growth law in between.
func TestPSPlanCost(t *testing.T) {
	for _, tc := range []struct{ degree, baby, ladder, mults, depth int }{
		{0, 1, 0, 0, 0},
		{1, 2, 0, 0, 1}, // one leaf: b_2 would be read by nothing
		{2, 2, 1, 2, 3},
		{3, 2, 1, 2, 3},
		{4, 4, 3, 4, 4},
		{7, 4, 3, 4, 4},  // the HELR sigmoid
		{15, 4, 4, 7, 6}, // b_2 b_3 b_4, then b_8
		{16, 8, 8, 10, 6},
		{31, 8, 8, 11, 7}, // EvalMod's sine
		{63, 8, 9, 16, 9},
	} {
		p := NewPSPlan(tc.degree)
		mults, depth := p.Cost()
		if p.Baby != tc.baby || len(p.Ladder) != tc.ladder || mults != tc.mults || depth != tc.depth {
			t.Errorf("degree %d: baby %d, %d ladder steps, %d mults, depth %d; want %d, %d, %d, %d",
				tc.degree, p.Baby, len(p.Ladder), mults, depth, tc.baby, tc.ladder, tc.mults, tc.depth)
		}
	}

	prevDepth := 0
	for d := 1; d < 300; d++ {
		p := NewPSPlan(d)
		built := map[int]bool{1: true}
		for _, s := range p.Ladder {
			if !built[s.I] || !built[s.J] || s.I+s.J != s.K || s.I-s.J < 0 || s.I-s.J > 1 || s.K > d {
				t.Fatalf("degree %d: step %+v is out of order, unbalanced or past the degree", d, s)
			}
			built[s.K] = true
		}
		if g := p.Giant(d); d >= p.Baby && (!built[g] || g > d || 2*g <= d) {
			t.Fatalf("degree %d: Giant = %d is not the largest built giant", d, g)
		}
		mults, depth := p.Cost()
		if depth < prevDepth || depth > 2*bits.Len(uint(d)) {
			t.Fatalf("degree %d: depth %d after %d, want monotone and at most 2·⌈log₂(d+1)⌉", d, depth, prevDepth)
		}
		if leaves := d/p.Baby + 1; d > 1 && mults != len(p.Ladder)+leaves-1 {
			t.Fatalf("degree %d: %d mults, want ladder %d + one per leaf beyond the first (%d leaves)", d, mults, len(p.Ladder), leaves)
		}
		prevDepth = depth
	}
}
