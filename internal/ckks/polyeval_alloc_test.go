//go:build !race

package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestEvalPolynomialAllocatesOnlyOutputs pins level alignment as a view:
// one degree-31 Chebyshev evaluation (EvalMod's shape) allocates the
// outputs of its ops — 11 MulRelin, 15 Rescale, 28 leaf terms and the
// linear ops between them, about 1,900 limbs on this chain — and nothing
// to align levels. A DropLevel-style copy per leaf term alone adds 28 × 2
// polynomials × 5…8 limbs ≈ 340 limbs, so the budget sits between the two.
// GC is held off while measuring so the pooled key-switch scratch is not
// dropped mid-run, and the best of a few tries discards the pool misses
// of a goroutine migration.
func TestEvalPolynomialAllocatesOnlyOutputs(t *testing.T) {
	tc, ev := polyTestContext(t)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	coeffs := make([]float64, 32)
	for k := range coeffs {
		coeffs[k] = 1 / float64(k+2)
	}
	const budgetLimbs = 2100

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ev.EvalPolynomial(ct, Chebyshev, coeffs) // warm the pools
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&m0)
		ev.EvalPolynomial(ct, Chebyshev, coeffs)
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if limbs := best / uint64(8*tc.params.N()); limbs > budgetLimbs {
		t.Errorf("a degree-31 Chebyshev evaluation allocates %d limbs, budget %d: something on the path copies a ciphertext to align levels", limbs, budgetLimbs)
	}
}
