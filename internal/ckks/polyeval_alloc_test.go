//go:build !race

package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestEvalPolynomialAllocatesOnlyOutputs pins what one degree-31 Chebyshev
// evaluation (EvalMod's shape) may allocate once the pools are warm: its
// results and polyBookkeeping bytes more per input. Every intermediate —
// the basis elements from T_2 up, the split products, the leaf
// accumulators and the joins — goes back to the pools after its last
// reader, and every op output is drawn from them; a single intermediate
// left to the allocator is a ciphertext of at least 4 limbs per half
// (64 KiB), far above the allowance. GC is held off while
// measuring so the pools are not dropped mid-run, and the best of a few
// tries discards the pool misses of a goroutine migration.
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
	// The schedule's nodes, batches, closures and ciphertext headers: 9 KiB
	// for one input, 7 KiB per input for two.
	const polyBookkeeping = 12 << 10
	limb := uint64(8 * tc.params.N())

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for inputs := 1; inputs <= len(cts); inputs++ {
		var results uint64
		for _, ct := range ev.EvalPolynomial(Chebyshev, coeffs, cts[:inputs]...) { // warm the pools
			results += 2 * uint64(ct.Level+1) * limb
		}
		best := ^uint64(0)
		var m0, m1 runtime.MemStats
		for try := 0; try < 5; try++ {
			runtime.ReadMemStats(&m0)
			ev.EvalPolynomial(Chebyshev, coeffs, cts[:inputs]...)
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		t.Logf("%d input(s): %d B, results %d B", inputs, best, results)
		if best > results+uint64(inputs)*polyBookkeeping {
			t.Errorf("a degree-31 Chebyshev evaluation of %d input(s) allocates %d B, want its results' %d B and at most %d B more: an intermediate is not released or an output not pooled", inputs, best, results, inputs*polyBookkeeping)
		}
	}
}
