package simfhe

import (
	"testing"
	"testing/quick"
)

// Property tests on the cost model: structural laws any sane cost model
// must satisfy, checked across randomized parameter points.

// randomParams maps three random bytes to a valid parameter set.
func randomParams(a, b, c uint8) Params {
	p := Params{
		LogN:        15 + int(a%3),  // 2^15 … 2^17
		LogQ:        30 + int(b%26), // 30 … 55
		L:           10 + int(c%30), // 10 … 39
		Dnum:        1 + int(a%4),   // 1 … 4
		FFTIter:     1 + int(b%6),   // 1 … 6
		SineDegree:  31,
		DoubleAngle: 2,
	}
	return p
}

func TestPropertyCachingNeverChangesCompute(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := randomParams(a, b, c)
		if p.Validate() != nil {
			return true
		}
		base := NewCtx(p, MB(2), NoOpts()).Bootstrap().Total()
		cached := NewCtx(p, MB(256), CachingOpts()).Bootstrap().Total()
		return base.Ops() == cached.Ops() && base.KeyRead == cached.KeyRead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCachingNeverIncreasesDRAM(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := randomParams(a, b, c)
		if p.Validate() != nil {
			return true
		}
		base := NewCtx(p, MB(2), NoOpts()).Bootstrap().Total()
		cached := NewCtx(p, MB(256), CachingOpts()).Bootstrap().Total()
		return cached.Bytes() <= base.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKeyCompressionHalvesKeysExactly(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := randomParams(a, b, c)
		if p.Validate() != nil {
			return true
		}
		plain := NewCtx(p, MB(256), CachingOpts())
		o := CachingOpts()
		o.KeyCompression = true
		comp := NewCtx(p, MB(256), o)
		l := p.L
		return comp.KSKInnerProd(l, false).KeyRead*2 == plain.KSKInnerProd(l, false).KeyRead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCostsGrowWithLimbs(t *testing.T) {
	ctx := NewCtx(Baseline(), MB(2), NoOpts())
	f := func(raw uint8) bool {
		l := 3 + int(raw%30)
		ops := []func(int) Cost{ctx.Add, ctx.PtAdd, ctx.Mult, ctx.Rotate, ctx.PtMult}
		for _, op := range ops {
			small, large := op(l), op(l+1)
			if large.Ops() <= small.Ops() || large.Bytes() <= small.Bytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEffectiveOptsMonotoneInCache(t *testing.T) {
	// A bigger cache never disables an optimization a smaller one allowed.
	f := func(a, b, c uint8, mbRaw uint8) bool {
		p := randomParams(a, b, c)
		if p.Validate() != nil {
			return true
		}
		mb := 1 + int(mbRaw)
		smaller := CachingOpts().Effective(p, MB(mb))
		larger := CachingOpts().Effective(p, MB(mb*2+8))
		implies := func(x, y bool) bool { return !x || y }
		return implies(smaller.CacheO1, larger.CacheO1) &&
			implies(smaller.CacheBeta, larger.CacheBeta) &&
			implies(smaller.CacheAlpha, larger.CacheAlpha) &&
			implies(smaller.LimbReorder, larger.LimbReorder)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBootstrapLevelBudgetConsistent(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := randomParams(a, b, c)
		if p.Validate() != nil {
			return true
		}
		bd := NewCtx(p, MB(32), AllOpts()).Bootstrap()
		return bd.LevelsConsumed == p.L-1-p.BootPlan().LevelAfter &&
			bd.LimbsAfter == p.L-bd.LevelsConsumed &&
			bd.LogQ1 == p.LogQ*bd.LimbsAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
