package rns

import (
	"math/big"
	"testing"
)

// TestModDownRescaleIsTheTwoStepDivision pins the merged ModDown as an
// exact refactor: on the bootstrap workload's chain shape (17 + 3 limbs)
// and a short one (3 + 1), at every level, a random raised polynomial
// divided once by P·q_ℓ equals Rescale(ModDown(x)) limb for limb under
// every worker count, and both equal ⌊(x + P·⌊q_ℓ/2⌋)/(P·q_ℓ)⌋ — the
// round-half-up of ⌊x/P⌋ by q_ℓ — computed with math/big.
func TestModDownRescaleIsTheTwoStepDivision(t *testing.T) {
	const n = 32
	for _, shape := range []struct{ nQ, nP int }{{17, 3}, {3, 1}} {
		ringQ, ringP := testRings(t, n, shape.nQ, shape.nP)
		conv := NewConverter(ringQ, ringP)
		src := fixedSource()
		bigP := bigProduct(ringP.Moduli)
		for levelQ := 1; levelQ <= ringQ.MaxLevel(); levelQ++ {
			rQ := ringQ.AtLevel(levelQ)
			bigPQ := new(big.Int).Mul(bigP, bigProduct(rQ.Moduli))
			ql := new(big.Int).SetUint64(ringQ.Moduli[levelQ])
			offset := new(big.Int).Mul(bigP, new(big.Int).Rsh(ql, 1))
			divisor := new(big.Int).Mul(bigP, ql)

			xs := make([]*big.Int, n)
			for c := range xs {
				x := new(big.Int)
				for w := 0; w <= levelQ+shape.nP; w++ {
					x.Lsh(x, 64).Add(x, new(big.Int).SetUint64(src.Uint64()))
				}
				xs[c] = x.Mod(x, bigPQ)
			}
			a := conv.NewPolyQP(levelQ)
			setFromBig(rQ, xs, a.Q)
			setFromBig(ringP, xs, a.P)
			rQ.NTTPoly(a.Q)
			ringP.NTTPoly(a.P)

			mid, twoStep := rQ.NewPoly(), rQ.NewPoly()
			conv.ModDown(levelQ, a, mid, 1)
			conv.Rescale(levelQ, mid, twoStep, 1)
			for _, w := range []int{1, 2, 4} {
				merged := rQ.NewPoly()
				conv.ModDownRescale(levelQ, a, merged, w)
				if !merged.Equal(twoStep) {
					t.Fatalf("%d+%d limbs, level %d, %d workers: merged division differs from Rescale(ModDown)", shape.nQ, shape.nP, levelQ, w)
				}
			}

			ringQ.AtLevel(levelQ - 1).INTTPoly(twoStep)
			for c, x := range xs {
				want := new(big.Int).Add(x, offset)
				want.Div(want, divisor)
				for i, qi := range ringQ.Moduli[:levelQ] {
					if w := new(big.Int).Mod(want, new(big.Int).SetUint64(qi)).Uint64(); twoStep.Coeffs[i][c] != w {
						t.Fatalf("%d+%d limbs, level %d, coeff %d limb %d: got %d, want %d", shape.nQ, shape.nP, levelQ, c, i, twoStep.Coeffs[i][c], w)
					}
				}
			}
		}
	}
}

// TestModDownRescaleRejectsLevelZero: there is no q_ℓ to divide by at the
// bottom of the chain.
func TestModDownRescaleRejectsLevelZero(t *testing.T) {
	ringQ, ringP := testRings(t, 32, 3, 1)
	conv := NewConverter(ringQ, ringP)
	a := conv.NewPolyQP(0)
	a.Q.IsNTT, a.P.IsNTT = true, true
	defer func() {
		if recover() == nil {
			t.Error("ModDownRescale at level 0 did not panic")
		}
	}()
	conv.ModDownRescale(0, a, ringQ.AtLevel(0).NewPoly(), 1)
}
