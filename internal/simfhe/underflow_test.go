package simfhe

import "testing"

// TestNoTrafficUnderflowAtTinyLevels guards the fusion credits: the
// subtracted round trips must never exceed what was charged, even at the
// smallest limb counts every optimization combination can see.
func TestNoTrafficUnderflowAtTinyLevels(t *testing.T) {
	for _, opts := range []OptSet{NoOpts(), {CacheO1: true}, CachingOpts(), AllOpts()} {
		for _, mb := range []int{1, 2, 32, 256} {
			ctx := NewCtx(Baseline(), MB(mb), opts)
			for l := 1; l <= 6; l++ {
				for name, c := range map[string]Cost{
					"Mult":   ctx.Mult(l),
					"Rotate": ctx.Rotate(l),
					"PtMult": ctx.PtMult(l),
					"Hoist4": ctx.HoistedRotations(l, 4),
					"MatVec": ctx.PtMatVecMult(l, band(7, ctx.P.Slots(), 0)),
				} {
					const insane = uint64(1) << 60
					if c.CtRead > insane || c.CtWrite > insane {
						t.Fatalf("%s at l=%d mb=%d opts=%+v: traffic underflow (%d, %d)",
							name, l, mb, opts, c.CtRead, c.CtWrite)
					}
				}
			}
		}
	}
}
