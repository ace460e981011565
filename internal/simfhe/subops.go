package simfhe

// This file defines the limb-level building blocks every primitive cost
// model composes: (i)NTT, the slot-wise NewLimb basis conversion of
// Eq. (1), pointwise arithmetic, and DRAM traffic helpers. Compute counts
// follow directly from the algorithms implemented functionally in
// internal/ring and internal/rns.

// nttLimb returns the compute cost of one forward or inverse NTT over a
// single limb: (N/2)·log N butterflies, each one modular multiplication
// and two modular additions.
func (p Params) nttLimb() Cost {
	n := uint64(p.N())
	logN := uint64(p.LogN)
	return Cost{
		MulMod: n / 2 * logN,
		AddMod: n * logN,
		NTT:    1,
	}
}

// NTTPoly returns the full cost (compute + DRAM traffic) of one forward
// or inverse NTT applied to `limbs` limbs: one read and one write of each
// limb, as ModUpDigit and ModDownPoly price their NTTs. The calib
// ntt_roundtrip row gates it against the measured trace.
func (c Ctx) NTTPoly(limbs int) Cost {
	return c.P.nttLimb().Times(limbs).
		Plus(c.P.readCt(limbs)).
		Plus(c.P.writeCt(limbs))
}

// newLimbCost returns the compute cost of the slot-wise basis conversion
// (Eq. 1) from kIn input limbs to kOut output limbs: per coefficient,
// kIn multiplications produce the y_i, then each output limb takes kIn
// multiply-accumulates plus one overflow-correction multiply-subtract.
func (p Params) newLimbCost(kIn, kOut int) Cost {
	n := uint64(p.N())
	in, out := uint64(kIn), uint64(kOut)
	return Cost{
		MulMod: n * (in + out*in + out),
		AddMod: n * (out*in + out),
	}
}

// pointwise returns the compute cost of per-coefficient work across the
// given number of limbs: muls multiplications and adds additions per
// coefficient per limb.
func (p Params) pointwise(limbs, muls, adds int) Cost {
	n := uint64(p.N())
	return Cost{
		MulMod: n * uint64(limbs) * uint64(muls),
		AddMod: n * uint64(limbs) * uint64(adds),
	}
}

// Traffic helpers: limb-granular DRAM transfers.

func (p Params) readCt(limbs int) Cost  { return Cost{CtRead: uint64(limbs) * p.LimbBytes()} }
func (p Params) writeCt(limbs int) Cost { return Cost{CtWrite: uint64(limbs) * p.LimbBytes()} }
func (p Params) readKey(limbs int) Cost { return Cost{KeyRead: uint64(limbs) * p.LimbBytes()} }
func (p Params) readPt(limbs int) Cost  { return Cost{PtRead: uint64(limbs) * p.LimbBytes()} }

// switches records orientation switches (limb-wise ↔ slot-wise).
func switches(n int) Cost { return Cost{OrientationSwitches: uint64(n)} }
