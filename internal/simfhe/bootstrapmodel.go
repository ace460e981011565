package simfhe

import (
	"fmt"

	"repro/internal/mathutil"
)

// Bootstrap cost model: the bootstrap plan (mathutil.BootPlan) priced
// with the primitive models, each operation at the limb count its planned
// level gives it; the post-bootstrap modulus log Q₁ (the Table 6
// throughput numerator) falls out of the plan.

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

// BootPlan returns the parameter set's bootstrap plan: fftIter groups per
// DFT over the bootstrapped slots, raised to the full chain of L limbs.
func (p Params) BootPlan() mathutil.BootPlan {
	return mathutil.NewBootPlan(p.logSlots(), p.L-1, mathutil.BootShape{
		CtSIter: p.FFTIter, StCIter: p.FFTIter, SineDegree: p.SineDegree, DoubleAngle: p.DoubleAngle})
}

// Bootstrap returns the per-phase breakdown of BootstrapTree, with the
// level schedule of its plan.
func (c Ctx) Bootstrap() BootstrapBreakdown {
	plan := c.P.BootPlan()
	t := c.PlanTree(plan)
	limbsAfter := plan.LevelAfter + 1
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
func (c Ctx) BootstrapTree() *CostTree { return c.PlanTree(c.P.BootPlan()) }

// PlanTree prices a bootstrap plan node for node. On a chain too short
// for it the planned levels run to zero and below (LimbsAfter ≤ 0 is how
// the search and the apps reject the configuration); operations are then
// charged at a one-limb floor, so the checked sums of Total() hold.
func (c Ctx) PlanTree(plan mathutil.BootPlan) *CostTree {
	p := c.P
	limbs := func(level int) int { return max(level+1, 1) }
	l := limbs(plan.MaxLevel)

	// ModRaise: one basis extension per half, from the plan's raise basis
	// to the full chain.
	in := plan.RaiseFrom + 1
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

	dft := func(name string, groups []mathutil.DFTGroup) *CostTree {
		t := &CostTree{Name: name}
		for i, g := range groups {
			t.Children = append(t.Children,
				leaf(fmt.Sprintf("PtMatVecMult[%d]", i), c.PtMatVecMult(limbs(g.Level), g.MatVec)))
		}
		return t
	}

	// CoeffToSlot, then the conjugate split (one Conjugate, two adds, one
	// free multiply by the X^{N/2} monomial).
	cts := dft("CoeffToSlot", plan.CoeffToSlot)
	l = limbs(plan.CoeffToSlot[len(plan.CoeffToSlot)-1].Level - 1)
	cts.Children = append(cts.Children, leaf("ConjSplit",
		c.Conjugate(l).Plus(c.Add(l).Times(2)).Plus(p.pointwise(2*l, 1, 0))))

	// EvalMod on both coefficient halves: the planned Mult batches, leaf
	// scalar multiply-adds at ≈ one per coefficient, then one free
	// multiply-by-i plus one add recombine the halves.
	var mults Cost
	for _, b := range plan.EvalMod {
		mults = mults.Plus(c.Mult(limbs(b.Level)).Times(b.Fanout))
	}
	em := &CostTree{Name: "EvalMod", Children: []*CostTree{
		leaf("ChebyshevMults", mults),
		leaf("LeafOps", p.pointwise(2*l, 1, 1).Times(plan.SineDegree).Times(2)),
	}}
	l = limbs(plan.SlotToCoeff[0].Level)
	em.Children = append(em.Children,
		leaf("Recombine", p.pointwise(2*l, 1, 0).Plus(c.Add(l))))

	return &CostTree{Name: "Bootstrap", Children: []*CostTree{mr, cts, em, dft("SlotToCoeff", plan.SlotToCoeff)}}
}
