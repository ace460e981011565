package simfhe

import (
	"fmt"

	"repro/internal/mathutil"
)

// Bootstrap cost model: Algorithm 4 composed from the primitive models,
// with the level schedule tracked explicitly so each operation is charged
// at the limb count it actually sees, and so the post-bootstrap modulus
// log Q₁ (the Table 6 throughput numerator) falls out of the schedule.

// BootstrapBreakdown reports the per-phase costs and the level schedule.
type BootstrapBreakdown struct {
	ModRaise    Cost
	CoeffToSlot Cost
	EvalMod     Cost
	SlotToCoeff Cost

	LevelsConsumed int
	LimbsAfter     int // limbs remaining after bootstrapping
	LogQ1          int // log2 of the output coefficient modulus
}

// Total returns the summed cost of all phases.
func (b BootstrapBreakdown) Total() Cost {
	return b.ModRaise.Plus(b.CoeffToSlot).Plus(b.EvalMod).Plus(b.SlotToCoeff)
}

// EvalModDepth returns the levels consumed by the approximate modular
// reduction: the depth of the Paterson–Stockmeyer schedule the functional
// evaluator runs for the sine polynomial, plus the double-angle steps.
func (p Params) EvalModDepth() int {
	_, d := mathutil.NewPSPlan(p.SineDegree).Cost()
	return d + p.DoubleAngle
}

// BootstrapDepth returns the total levels a bootstrap consumes after the
// raise: fftIter per homomorphic DFT plus the EvalMod depth.
func (p Params) BootstrapDepth() int {
	return 2*p.FFTIter + p.EvalModDepth()
}

// Bootstrap composes the full Algorithm 4 at the context's parameters and
// returns the per-phase breakdown: the four phase subtrees of
// BootstrapTree, totalled, with the level schedule of the same walk.
func (c Ctx) Bootstrap() BootstrapBreakdown {
	t, limbsAfter := c.bootstrapTree()
	return BootstrapBreakdown{
		ModRaise:       t.Children[0].Total(),
		CoeffToSlot:    t.Children[1].Total(),
		EvalMod:        t.Children[2].Total(),
		SlotToCoeff:    t.Children[3].Total(),
		LevelsConsumed: c.P.L - limbsAfter,
		LimbsAfter:     limbsAfter,
		LogQ1:          c.P.LogQ * limbsAfter,
	}
}

// BootstrapTree attributes the full Algorithm 4 pipeline; its four
// top-level children are BootstrapBreakdown's phases.
func (c Ctx) BootstrapTree() *CostTree {
	t, _ := c.bootstrapTree()
	return t
}

// bootstrapTree walks the pipeline once, charging each operation at the
// limb count it actually sees, and returns the tree together with the
// limbs left after the last level is consumed. On a chain too short for
// the pipeline the schedule level runs to zero and below (LimbsAfter ≤ 0
// is how the search and the apps reject the configuration); operations
// are then charged at a one-limb floor, max(l, 1), so the cost stays
// finite and the checked sums of Total() hold.
func (c Ctx) bootstrapTree() (root *CostTree, limbsAfter int) {
	p := c.P
	l := p.L

	// ModRaise: extend both halves from the exhausted 2-limb basis to the
	// full chain (one basis extension per half).
	in := 2
	kOut := l - in
	raise := p.nttLimb().Times(in).
		Plus(p.newLimbCost(in, kOut)).
		Plus(p.nttLimb().Times(kOut)).
		Plus(switches(1))
	raise = raise.Plus(p.readCt(in)).Plus(p.writeCt(l))
	if !c.Opts.CacheAlpha {
		raise = raise.Plus(p.writeCt(in)).Plus(p.readCt(in)).
			Plus(p.writeCt(kOut)).Plus(p.readCt(kOut))
	}
	mr := &CostTree{Name: "ModRaise", Children: []*CostTree{leaf("Raise", raise.Times(2))}}
	// SubSum (sparse packing only): fold the N/2-coefficient raise into
	// the 2^LogSlots slots with logN−1−logSlots rotations and adds, so
	// the DFTs below run over the smaller slot count (§4.3).
	if r := p.SubSumRotations(); r > 0 {
		mr.Children = append(mr.Children, leaf("SubSum", c.Rotate(l).Plus(c.Add(l)).Times(r)))
	}

	diags := p.DFTDiagonals()

	// CoeffToSlot: fftIter matrix products, one level each, then the
	// conjugate split (one Conjugate, two adds, one free multiply by the
	// X^{N/2} monomial).
	cts := &CostTree{Name: "CoeffToSlot"}
	for i, d := range diags {
		cts.Children = append(cts.Children,
			leaf(fmt.Sprintf("PtMatVecMult[%d]", i), c.PtMatVecMult(max(l, 1), d)))
		l--
	}
	cts.Children = append(cts.Children, leaf("ConjSplit",
		c.Conjugate(max(l, 1)).
			Plus(c.Add(max(l, 1)).Times(2)).
			Plus(p.pointwise(2*max(l, 1), 1, 0))))

	// EvalMod on the two coefficient halves: the multiplications are
	// charged across the descending level span (roughly uniformly), the
	// leaf scalar multiplications and constant adds at ≈ one per
	// polynomial coefficient, then one free multiply-by-i plus one add
	// recombine the halves.
	mults, depth := mathutil.NewPSPlan(p.SineDegree).Cost()
	mults += p.DoubleAngle
	depth += p.DoubleAngle
	var multCost Cost
	for i := 0; i < mults; i++ {
		multCost = multCost.Plus(c.Mult(max(l-(i*depth)/mults, 1)))
	}
	em := &CostTree{Name: "EvalMod", Children: []*CostTree{
		leaf("ChebyshevMults", multCost.Times(2)),
		leaf("LeafOps", p.pointwise(2*max(l, 1), 1, 1).Times(p.SineDegree).Times(2)),
	}}
	l -= depth
	em.Children = append(em.Children,
		leaf("Recombine", p.pointwise(2*max(l, 1), 1, 0).Plus(c.Add(max(l, 1)))))

	// SlotToCoeff: fftIter more matrix products.
	stc := &CostTree{Name: "SlotToCoeff"}
	for i, d := range diags {
		stc.Children = append(stc.Children,
			leaf(fmt.Sprintf("PtMatVecMult[%d]", i), c.PtMatVecMult(max(l, 1), d)))
		l--
	}

	return &CostTree{Name: "Bootstrap", Children: []*CostTree{mr, cts, em, stc}}, l
}
