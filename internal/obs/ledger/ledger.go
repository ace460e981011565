// Package ledger bridges the calibrated simfhe analytic model into the
// obs span layer: it implements obs.CostModel for a functional ckks
// parameter set, so evaluator op spans carry the model-predicted
// bytes/ops for their exact (level, dnum, toggle) point next to the
// measured kernel-counter deltas. It lives under internal/obs but in its
// own package so ckks can depend on the obs.CostModel interface without
// importing the simulator. It is the only place a functional op kind or
// parameter set maps to the model: `simfhe validate` (internal/calib)
// prices every span through it.
package ledger

import (
	"fmt"
	"strings"

	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/simfhe"
)

// DefaultCacheLimbs is the simulated on-chip capacity, in limbs, that
// predictions are made at by default — the capacity `simfhe validate`
// replays measured traces at, so per-span drift is comparable to its
// gated rows.
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
// evaluated at DefaultCacheLimbs with no MAD optimizations, the
// configuration the functional library implements.
func ForParameters(p *ckks.Parameters) (*Model, error) {
	return ForParametersAt(p, DefaultCacheLimbs, simfhe.NoOpts())
}

// ForParametersAt is ForParameters at an explicit simulated cache
// capacity (in limbs) and MAD optimization set: the second model point a
// calibration toggle re-prices the same spans at.
func ForParametersAt(p *ckks.Parameters, cacheLimbs int, opts simfhe.OptSet) (*Model, error) {
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
	return New(mp, cache, opts), nil
}

// pricers is the ledger's kind vocabulary: each op kind the model prices,
// keyed as the evaluator names its op span minus the "ckks." prefix.
var pricers = map[string]func(c simfhe.Ctx, limbs, fanout int) simfhe.Cost{
	// The evaluator's Mul closes with the merged ModDown (§3.2): price
	// that tree. MulRelin, Rescale and KeySwitch stay the unfused ops they
	// still are.
	"Mult": func(c simfhe.Ctx, l, _ int) simfhe.Cost {
		c.Opts.ModDownMerge = true
		return c.Mult(l)
	},
	"MulRelin":  func(c simfhe.Ctx, l, _ int) simfhe.Cost { return c.MulRelin(l) },
	"Square":    func(c simfhe.Ctx, l, _ int) simfhe.Cost { return c.MulRelin(l) },
	"Rescale":   func(c simfhe.Ctx, l, _ int) simfhe.Cost { return c.RescalePoly(l).Times(2) },
	"KeySwitch": func(c simfhe.Ctx, l, _ int) simfhe.Cost { return c.KeySwitch(l) },
	"Rotate":    func(c simfhe.Ctx, l, _ int) simfhe.Cost { return c.Rotate(l) },
	"Conjugate": func(c simfhe.Ctx, l, _ int) simfhe.Cost { return c.Rotate(l) },
	"RotateHoisted": func(c simfhe.Ctx, l, fanout int) simfhe.Cost {
		return c.HoistedRotations(l, max(fanout, 1))
	},
}

// Kind maps an op span name to the ledger kind it is priced as; ok is
// false for spans the model has no price for.
func Kind(span string) (kind string, ok bool) {
	kind, ok = strings.CutPrefix(span, "ckks.")
	if _, priced := pricers[kind]; !ok || !priced {
		return "", false
	}
	return kind, true
}

// PredictOp implements obs.CostModel. limbs is the op's input limb count
// (level+1); fanout is the hoisted rotation count. Kinds outside the
// model's vocabulary, and limb counts outside its domain, report ok=false
// — the span then simply carries no prediction.
func (m *Model) PredictOp(kind string, limbs, fanout int) (obs.OpCost, bool) {
	price, ok := pricers[kind]
	if m == nil || !ok || limbs < 2 || limbs > m.ctx.P.L {
		return obs.OpCost{}, false
	}
	c := price(m.ctx, limbs, fanout)
	return obs.OpCost{Bytes: c.Bytes(), Ops: c.Ops(), NTT: c.NTT}, true
}
