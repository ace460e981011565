package simfhe

// Cost models for every primitive operation of the paper's Table 2 (and
// the sub-operations of Table 4), each parameterized by the current limb
// count ℓ. Compute counts are derived from the algorithms (Algorithms
// 1–3); DRAM traffic follows the streaming schedule a small on-chip
// memory forces, with each enabled MAD optimization removing the round
// trips it is defined to remove (§3.1).

// PtAdd adds a plaintext to a ciphertext: one addition per coefficient of
// the c0 half; c1 is untouched.
func (c Ctx) PtAdd(l int) Cost {
	p := c.P
	cost := p.pointwise(l, 0, 1)
	cost = cost.Plus(p.readCt(l)).Plus(p.readPt(l)).Plus(p.writeCt(l))
	return cost
}

// Add adds two ciphertexts: both halves.
func (c Ctx) Add(l int) Cost {
	p := c.P
	cost := p.pointwise(2*l, 0, 1)
	cost = cost.Plus(p.readCt(4 * l)).Plus(p.writeCt(2 * l))
	return cost
}

// Automorph permutes the slots of both ciphertext halves. Pure data
// movement: zero arithmetic (Table 4's 0-op column).
func (c Ctx) Automorph(l int) Cost {
	p := c.P
	return p.readCt(2 * l).Plus(p.writeCt(2 * l))
}

// Decomp splits the c1 half into β digits: one multiplication (by the
// digit-basis constant) and one addition per coefficient.
func (c Ctx) Decomp(l int) Cost {
	p := c.P
	cost := p.pointwise(l, 1, 1)
	cost = cost.Plus(p.readCt(l)).Plus(p.writeCt(l))
	return cost
}

// ModUpDigit raises one key-switching digit of digitSize limbs from the
// digit basis to the full Q∪P basis of raisedLimbs(l) limbs
// (Algorithm 1): iNTT the digit, NewLimb slot-wise, NTT the new limbs.
func (c Ctx) ModUpDigit(l, digitSize int) Cost {
	p := c.P
	kOut := p.RaisedLimbs(l) - digitSize

	cost := p.nttLimb().Times(digitSize)             // line 1: iNTT, limb-wise
	cost = cost.Plus(p.newLimbCost(digitSize, kOut)) // line 2: slot-wise
	cost = cost.Plus(p.nttLimb().Times(kOut))        // line 3: NTT, limb-wise
	cost = cost.Plus(switches(1))

	if c.Opts.CacheAlpha {
		// The whole digit (≤ α limbs) fits on chip: the iNTT round trip,
		// the slot-wise intermediate and the NTT read-back all stay in
		// cache. Only the input read and the final evaluation-form write
		// touch DRAM.
		cost = cost.Plus(p.readCt(digitSize)).Plus(p.writeCt(kOut))
		return cost
	}
	// Streaming: every sub-operation round-trips.
	cost = cost.Plus(p.readCt(digitSize)).Plus(p.writeCt(digitSize)) // iNTT
	cost = cost.Plus(p.readCt(digitSize)).Plus(p.writeCt(kOut))      // NewLimb
	cost = cost.Plus(p.readCt(kOut)).Plus(p.writeCt(kOut))           // NTT
	return cost
}

// modUpAll raises all β digits of an ℓ-limb polynomial.
func (c Ctx) modUpAll(l int) Cost {
	p := c.P
	alpha := p.Alpha()
	beta := p.Beta(l)
	var cost Cost
	for j := 0; j < beta; j++ {
		d := alpha
		if j == beta-1 {
			d = l - (beta-1)*alpha
		}
		cost = cost.Plus(c.ModUpDigit(l, d))
	}
	return cost
}

// KSKInnerProd multiplies the β raised digits with the 2×β switching-key
// limbs and accumulates the raised pair (u, v) — Algorithm 3 line 3.
// digitsResident reports that the raised digits are already on chip
// (the O(β) caching optimization inside PtMatVecMult).
func (c Ctx) KSKInnerProd(l int, digitsResident bool) Cost {
	p := c.P
	r := p.RaisedLimbs(l)
	beta := p.Beta(l)

	cost := p.pointwise(2*beta*r, 1, 1)
	keyLimbs := 2 * beta * r
	if c.Opts.KeyCompression {
		// The uniform half is regenerated from a seed on chip: half the
		// key traffic, plus cheap PRNG expansion (≈ N/2 mul-equivalents
		// per limb).
		keyLimbs = beta * r
		cost.MulMod += uint64(beta*r) * uint64(p.N()) / 2
	}
	cost = cost.Plus(p.readKey(keyLimbs))
	if !digitsResident {
		cost = cost.Plus(p.readCt(beta * r))
	}
	cost = cost.Plus(p.writeCt(2 * r))
	return cost
}

// ModDownPoly reduces one raised polynomial from ℓ+α limbs back to ℓ
// (Algorithm 2), dividing by P. dropResident reports that the α limbs to
// be dropped are already on chip (the limb re-ordering optimization).
// dropLimbs generalizes the divisor: α for a plain ModDown, α+1 when the
// Rescale is merged in (§3.2 ModDown merge).
func (c Ctx) ModDownPoly(l, dropLimbs int, dropResident bool) Cost {
	p := c.P
	out := l + p.Alpha() - dropLimbs // output limb count

	cost := p.nttLimb().Times(dropLimbs)            // line 1 on B′ only
	cost = cost.Plus(p.newLimbCost(dropLimbs, out)) // line 3, slot-wise
	cost = cost.Plus(p.pointwise(out, 1, 1))        // line 4
	cost = cost.Plus(p.nttLimb().Times(out))        // line 5
	cost = cost.Plus(switches(1))

	switch {
	case c.Opts.CacheAlpha && dropResident:
		// Dropped limbs arrive in cache from the producer; correction
		// limbs are generated, transformed and combined in cache.
		cost = cost.Plus(p.readCt(out)).Plus(p.writeCt(out))
	case c.Opts.CacheAlpha:
		cost = cost.Plus(p.readCt(dropLimbs)).Plus(p.readCt(out)).Plus(p.writeCt(out))
	default:
		// Streaming: iNTT round trip on the dropped limbs, slot-wise
		// correction write, NTT read-back, then the combine pass.
		cost = cost.Plus(p.readCt(dropLimbs)).Plus(p.writeCt(dropLimbs)) // iNTT
		cost = cost.Plus(p.readCt(dropLimbs)).Plus(p.writeCt(out))       // NewLimb
		cost = cost.Plus(p.readCt(out))                                  // NTT back
		cost = cost.Plus(p.readCt(out)).Plus(p.writeCt(out))             // combine with x
	}
	return cost
}

// RescalePoly divides one ℓ-limb polynomial by its top limb (Table 2's
// Rescale): iNTT the dropped limb (kept on chip), then per remaining limb
// generate the correction, transform it in cache, and combine.
func (c Ctx) RescalePoly(l int) Cost {
	p := c.P
	cost := p.nttLimb()                        // iNTT of the dropped limb
	cost = cost.Plus(p.nttLimb().Times(l - 1)) // forward NTT per correction limb
	cost = cost.Plus(p.pointwise(l-1, 1, 1))   // subtract + scale
	cost = cost.Plus(switches(1))
	cost = cost.Plus(p.readCt(1))                            // dropped limb
	cost = cost.Plus(p.readCt(l - 1)).Plus(p.writeCt(l - 1)) // per-limb combine
	return cost
}

// minusCtRead subtracts limb reads that a fusion keeps on chip.
func (c Cost) minusCtRead(p Params, limbs int) Cost {
	c.CtRead -= uint64(limbs) * p.LimbBytes()
	return c
}

// minusCtWrite subtracts limb writes that a fusion keeps on chip.
func (c Cost) minusCtWrite(p Params, limbs int) Cost {
	c.CtWrite -= uint64(limbs) * p.LimbBytes()
	return c
}

// The composite operations are each defined once, as an attribution tree
// in costtree.go; the flat cost is that tree's total.

// KeySwitch is the full Algorithm 3 on one polynomial; KeySwitchTree
// defines it.
func (c Ctx) KeySwitch(l int) Cost { return c.KeySwitchTree(l).Total() }

// MulRelin is the rescale-free multiply the functional evaluator exposes
// as MulRelin/Square and the unit the cost ledger attributes per span;
// MulRelinTree defines it.
func (c Ctx) MulRelin(l int) Cost { return c.MulRelinTree(l).Total() }

// Mult is the full Table 2 Mult; MultTree defines it.
func (c Ctx) Mult(l int) Cost { return c.MultTree(l).Total() }

// PtMult multiplies by a plaintext and rescales (Table 2 PtMult);
// PtMultTree defines it.
func (c Ctx) PtMult(l int) Cost { return c.PtMultTree(l).Total() }

// Rotate rotates the slots by k positions (Table 2); RotateTree defines it.
func (c Ctx) Rotate(l int) Cost { return c.RotateTree(l).Total() }

// Conjugate has the same implementation as Rotate (Table 4).
func (c Ctx) Conjugate(l int) Cost { return c.Rotate(l) }

// HoistedRotations models r rotations sharing one Decomp + ModUp (the
// standard ModUp hoisting of §3.2): the decomposition and basis raise are
// paid once, then each rotation permutes the raised digits, runs the key
// inner product and (absent ModDown hoisting) a pair of ModDowns.
// The returned cost excludes any plaintext multiplications.
func (c Ctx) HoistedRotations(l, r int) Cost {
	p := c.P
	beta := p.Beta(l)
	raised := p.RaisedLimbs(l)

	cost := c.Decomp(l)
	if c.Opts.CacheO1 {
		cost = cost.minusCtWrite(p, l).minusCtRead(p, l)
	}
	cost = cost.Plus(c.modUpAll(l))

	perRotation := Cost{}
	// Permute the raised digits (data movement only) …
	if c.Opts.CacheBeta {
		// … reading the ModUp outputs once per limb position for all
		// rotations: amortized to a single read of the β·raised limbs,
		// charged below, outside the per-rotation term.
	} else {
		perRotation = perRotation.Plus(p.readCt(beta * raised))
	}
	perRotation = perRotation.Plus(c.KSKInnerProd(l, true))
	perRotation = perRotation.Plus(c.ModDownPoly(l, p.Alpha(), c.Opts.LimbReorder).Times(2))
	if c.Opts.LimbReorder {
		perRotation = perRotation.minusCtWrite(p, 2*p.Alpha())
	}
	// Automorph + recombine on the c0 half.
	perRotation = perRotation.Plus(p.pointwise(l, 0, 1))
	perRotation = perRotation.Plus(p.readCt(2 * l)).Plus(p.writeCt(l))

	cost = cost.Plus(perRotation.Times(r))
	if c.Opts.CacheBeta {
		cost = cost.Plus(p.readCt(beta * raised))
	}
	return cost
}
