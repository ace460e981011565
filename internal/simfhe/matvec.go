package simfhe

import "repro/internal/mathutil"

// PtMatVecMult models one homomorphic plaintext matrix–vector product at
// limb count ℓ with the caller's baby-step/giant-step split m (a bootstrap
// plan's DFT group, or a probe's pinned n1): n1 − 1 = m.Babies keyed baby
// rotations, n2 − 1 = m.Giants giant steps, one plaintext multiplication
// per diagonal, and a trailing Rescale. This is the workhorse of
// CoeffToSlot and SlotToCoeff, and what the O(β) caching and
// ModDown-hoisting optimizations target.
//
// Two schedules are modeled:
//
//   - Baseline (Jung et al. [20]): ModUp hoisting across the baby steps,
//     but every baby rotation and every giant rotation performs its own
//     pair of ModDowns — an orientation switch per step.
//   - ModDown hoisting (§3.2, Figure 5(c)): the entire product runs in the
//     raised basis R_PQ. One Decomp+ModUp on the input, key-switch
//     products and diagonal multiplications accumulate raised, and a
//     single pair of ModDowns closes the operation — three RNS basis
//     changes regardless of the matrix dimension.
func (c Ctx) PtMatVecMult(l int, m mathutil.MatVec) Cost {
	numDiags := len(m.Diags)
	if numDiags < 1 {
		return Cost{}
	}
	if c.Opts.ModDownHoist {
		return c.matVecHoisted(l, numDiags, m.Babies+1, m.Giants+1)
	}
	return c.matVecBaseline(l, numDiags, m.Babies+1, m.Giants+1)
}

// kskKeyLimbs returns the DRAM limb count of one rotation key's worth of
// switching-key material at limb count ℓ (halved under key compression,
// which regenerates the uniform half on chip from a seed).
func (c Ctx) kskKeyLimbs(l int) int {
	k := 2 * c.P.Beta(l) * c.P.RaisedLimbs(l)
	if c.Opts.KeyCompression {
		k /= 2
	}
	return k
}

// kskCompute returns the arithmetic of one key inner product (Algorithm 3
// line 3), including PRNG re-expansion when the key is compressed.
func (c Ctx) kskCompute(l int) Cost {
	p := c.P
	beta := p.Beta(l)
	r := p.RaisedLimbs(l)
	cost := p.pointwise(2*beta*r, 1, 1)
	if c.Opts.KeyCompression {
		cost.MulMod += uint64(beta*r) * uint64(p.N()) / 2
	}
	return cost
}

// matVecBaseline is the [20] schedule.
func (c Ctx) matVecBaseline(l, numDiags, n1, n2 int) Cost {
	p := c.P
	beta := p.Beta(l)
	raised := p.RaisedLimbs(l)

	// Shared Decomp + ModUp (standard ModUp hoisting).
	cost := c.Decomp(l)
	if c.Opts.CacheO1 {
		cost = cost.minusCtWrite(p, l).minusCtRead(p, l)
	}
	cost = cost.Plus(c.modUpAll(l))

	// Baby rotations: key inner product, pair of ModDowns, recombine.
	perBaby := c.kskCompute(l)
	perBaby = perBaby.Plus(p.readKey(c.kskKeyLimbs(l)))
	if !c.Opts.CacheBeta {
		// Without the O(β) working set, every rotation re-reads the
		// raised digits produced by the shared ModUp.
		perBaby = perBaby.Plus(p.readCt(beta * raised))
	}
	perBaby = perBaby.Plus(p.writeCt(2 * raised)) // the raised pair (u, v)
	perBaby = perBaby.Plus(c.ModDownPoly(l, p.Alpha(), c.Opts.LimbReorder).Times(2))
	if c.Opts.LimbReorder {
		perBaby = perBaby.minusCtWrite(p, 2*p.Alpha())
	}
	// Automorph + recombine on the c0 half.
	perBaby = perBaby.Plus(p.pointwise(l, 0, 1))
	perBaby = perBaby.Plus(p.readCt(2 * l)).Plus(p.writeCt(l))
	if c.Opts.CacheO1 {
		perBaby = perBaby.minusCtWrite(p, l).minusCtRead(p, l)
	}
	cost = cost.Plus(perBaby.Times(n1 - 1))
	if c.Opts.CacheBeta {
		cost = cost.Plus(p.readCt(beta * raised)) // digits read once in total
	}

	// Diagonal multiply-accumulates: partial sums stay on chip limb-wise
	// (Jung et al.'s fused kernels) and are written once per giant group.
	perDiag := p.pointwise(2*l, 1, 1).Plus(p.readCt(2 * l)).Plus(p.readPt(l))
	cost = cost.Plus(perDiag.Times(numDiags))
	cost = cost.Plus(p.writeCt(2 * l).Times(n2))

	// Giant rotations of the partial sums, then accumulation.
	if n2 > 1 {
		giant := c.Rotate(l).Plus(p.pointwise(2*l, 0, 1)).
			Plus(p.readCt(2 * l)).Plus(p.writeCt(2 * l))
		cost = cost.Plus(giant.Times(n2 - 1))
	}

	// One Rescale pair for the accumulated product.
	cost = cost.Plus(c.RescalePoly(l).Times(2))
	return cost
}

// matVecHoisted is the Figure 5(c) schedule: a single limb-major sweep
// fuses every baby rotation's key inner product with its diagonal
// multiplications, accumulating directly into the n2 raised giant
// accumulators, so the per-rotation raised pairs are never materialized.
func (c Ctx) matVecHoisted(l, numDiags, n1, n2 int) Cost {
	p := c.P
	beta := p.Beta(l)
	raised := p.RaisedLimbs(l)

	// One Decomp + ModUp for everything.
	cost := c.Decomp(l)
	if c.Opts.CacheO1 {
		cost = cost.minusCtWrite(p, l).minusCtRead(p, l)
	}
	cost = cost.Plus(c.modUpAll(l))

	// The fused sweep. Per baby rotation: the key inner product (compute)
	// and the key reads; per diagonal: a raised plaintext multiply-
	// accumulate, the plaintext read, and the lift of σ(c0) via PModUp.
	sweep := c.kskCompute(l).Plus(p.readKey(c.kskKeyLimbs(l))).Times(n1 - 1)
	if c.Opts.CacheBeta {
		sweep = sweep.Plus(p.readCt(beta * raised))
	} else {
		sweep = sweep.Plus(p.readCt(beta * raised).Times(n1))
	}
	perDiag := p.pointwise(2*raised, 1, 1). // diagonal MAC on (u, v)
						Plus(p.pointwise(l, 1, 1)). // PModUp(σ(c0)) + add
						Plus(p.readPt(raised)).
						Plus(p.readCt(l)) // c0
	sweep = sweep.Plus(perDiag.Times(numDiags))
	sweep = sweep.Plus(p.writeCt(2 * raised).Times(n2)) // giant accumulators
	cost = cost.Plus(sweep)

	// Giant rotations act on the raised accumulators: automorphism plus a
	// key inner product, still without ModDown, then a final merge.
	if n2 > 1 {
		giant := p.readCt(2 * raised).Plus(p.writeCt(2 * raised)) // automorph
		giant = giant.Plus(c.kskCompute(l)).Plus(p.readKey(c.kskKeyLimbs(l)))
		giant = giant.Plus(p.pointwise(2*raised, 0, 1))
		giant = giant.Plus(p.readCt(2 * raised)) // accumulate into the first
		cost = cost.Plus(giant.Times(n2 - 1))
	}

	// The hoisted pair of ModDowns; with the merge option the trailing
	// Rescale folds in (divide by P·q_ℓ), otherwise Rescale separately.
	drop := p.Alpha()
	if c.Opts.ModDownMerge {
		drop++
	}
	cost = cost.Plus(c.ModDownPoly(l, drop, c.Opts.LimbReorder).Times(2))
	if c.Opts.LimbReorder {
		cost = cost.minusCtWrite(p, 2*p.Alpha())
	}
	if !c.Opts.ModDownMerge {
		cost = cost.Plus(c.RescalePoly(l).Times(2))
	}
	return cost
}
