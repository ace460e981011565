//go:build !race

package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestEvalPolynomialAllocatesOnlyOutputs pins what one degree-31 Chebyshev
// evaluation (EvalMod's shape) may allocate: the outputs of its ops — 11
// merged Mults, 4 leaf accumulators with their Rescales and the Adds that
// join the recursion, about 280 limbs on this chain — and nothing to align
// levels, to hold a leaf term, or between a product and its rescale. One
// ciphertext per leaf term alone adds 28 × 2 polynomials × 5…8 limbs ≥ 280
// limbs, an unrescaled product per Mult 11 × 2 × 4…10; the budget sits
// below either. A batch of inputs may allocate that much per input: it
// holds up to ring.MaxLanes products' pooled scratch at once, and the
// pools keep it.
// GC is held off while measuring so the pooled key-switch scratch is not
// dropped mid-run, and the best of a few tries discards the pool misses
// of a goroutine migration.
func TestEvalPolynomialAllocatesOnlyOutputs(t *testing.T) {
	tc, ev := polyTestContext(t)
	cts := []*Ciphertext{
		tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1))),
		tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1))),
	}
	coeffs := make([]float64, 32)
	for k := range coeffs {
		coeffs[k] = 1 / float64(k+2)
	}
	const budgetLimbs = 400

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for inputs := 1; inputs <= len(cts); inputs++ {
		ev.EvalPolynomial(Chebyshev, coeffs, cts[:inputs]...) // warm the pools
		best := ^uint64(0)
		var m0, m1 runtime.MemStats
		for try := 0; try < 5; try++ {
			runtime.ReadMemStats(&m0)
			ev.EvalPolynomial(Chebyshev, coeffs, cts[:inputs]...)
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		limbs := best / uint64(8*tc.params.N())
		t.Logf("%d input(s): %d limbs", inputs, limbs)
		if limbs > uint64(inputs)*budgetLimbs {
			t.Errorf("a degree-31 Chebyshev evaluation of %d input(s) allocates %d limbs, budget %d per input: something on the path allocates more than its outputs", inputs, limbs, budgetLimbs)
		}
	}
}
