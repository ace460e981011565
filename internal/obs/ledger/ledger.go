// Package ledger bridges the calibrated simfhe analytic model into the
// obs span layer: it implements obs.CostModel for a functional ckks
// parameter set, so evaluator op spans carry the model-predicted
// bytes/ops for their exact (level, dnum, toggle) point next to the
// measured kernel-counter deltas. It lives under internal/obs but in its
// own package so ckks can depend on the obs.CostModel interface without
// importing the simulator.
package ledger

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/simfhe"
)

// DefaultCacheLimbs mirrors calib.DefaultConfig.CacheLimbs: predictions
// are made at the same simulated on-chip capacity the model was
// calibrated against, so per-span drift is comparable to the gated
// `simfhe validate` rows.
const DefaultCacheLimbs = 6

// Model evaluates the simfhe analytic model at one parameter point.
type Model struct {
	ctx simfhe.Ctx
}

// New builds a Model directly from a simfhe parameter point.
func New(p simfhe.Params, cache simfhe.CacheConfig, opts simfhe.OptSet) *Model {
	return &Model{ctx: simfhe.NewCtx(p, cache, opts)}
}

// Ctx exposes the underlying model context (for consumers that want raw
// Cost breakdowns rather than the CostModel projection).
func (m *Model) Ctx() simfhe.Ctx { return m.ctx }

// ForParameters derives the simfhe parameter point matching a functional
// ckks parameter set — same LogN, L = the Q-limb count, and Dnum
// inferred so the model's α equals the functional special-limb count —
// evaluated at the calibration cache size with no MAD optimizations,
// the exact configuration the calibration gate runs at.
func ForParameters(p *ckks.Parameters) (*Model, error) {
	return ForParametersAt(p, DefaultCacheLimbs)
}

// ForParametersAt is ForParameters with an explicit simulated cache
// capacity (in limbs), for consumers — like the drift harness — that
// replay measured traces at a non-default geometry and need the model
// evaluated at the same point.
func ForParametersAt(p *ckks.Parameters, cacheLimbs int) (*Model, error) {
	L := p.MaxLevel() + 1
	kP := p.Alpha()
	dnum := 0
	for d := 1; d <= L; d++ {
		if (L+d)/d == kP {
			dnum = d
			break
		}
	}
	if dnum == 0 {
		return nil, fmt.Errorf("ledger: no dnum in [1,%d] yields %d special limbs", L, kP)
	}
	mp := simfhe.Params{
		LogN: p.LogN(), LogQ: 40, L: L, Dnum: dnum,
		FFTIter: 3, SineDegree: 31, DoubleAngle: 3,
	}
	if err := mp.Validate(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	cache := simfhe.CacheConfig{Bytes: uint64(cacheLimbs) * mp.LimbBytes()}
	return New(mp, cache, simfhe.NoOpts()), nil
}

// PredictOp implements obs.CostModel. limbs is the op's input limb count
// (level+1); fanout is the hoisted rotation count. Kinds outside the
// model's vocabulary, and limb counts outside its domain, report ok=false
// — the span then simply carries no prediction.
func (m *Model) PredictOp(kind string, limbs, fanout int) (obs.OpCost, bool) {
	if m == nil || limbs < 2 || limbs > m.ctx.P.L {
		return obs.OpCost{}, false
	}
	var c simfhe.Cost
	switch kind {
	case "Mult":
		// The evaluator's Mul closes with the merged ModDown (§3.2): price
		// that tree. MulRelin, Rescale and KeySwitch stay the unfused ops
		// they still are.
		merged := m.ctx
		merged.Opts.ModDownMerge = true
		c = merged.Mult(limbs)
	case "MulRelin", "Square":
		c = m.ctx.MulRelin(limbs)
	case "Rescale":
		c = m.ctx.RescalePoly(limbs).Times(2)
	case "KeySwitch":
		c = m.ctx.KeySwitch(limbs)
	case "Rotate", "Conjugate":
		c = m.ctx.Rotate(limbs)
	case "RotateHoisted":
		if fanout < 1 {
			fanout = 1
		}
		c = m.ctx.HoistedRotations(limbs, fanout)
	default:
		return obs.OpCost{}, false
	}
	return obs.OpCost{Bytes: c.Bytes(), Ops: c.Ops(), NTT: c.NTT}, true
}
