//go:build !race

package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation pins of the key-switch inner product. Excluded under the
// race detector, whose sync.Pool drops items at random; a sync.Pool can
// also be drained by a concurrent GC, so a fraction of an allocation per
// run is tolerated and a per-call allocation (≥ 1 per run) fails.

// TestKskInnerProductAllocFree: the steady-state product of a KeySwitch —
// resident key, serial — performs no heap allocation.
func TestKskInnerProductAllocFree(t *testing.T) {
	tc := newTestContext(t)
	p := tc.params
	swk := tc.kg.GenKeySwitchingKey(tc.sk, tc.kg.GenSecretKey(), false)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(p.Slots(), 1)))
	ev := NewEvaluator(p, nil)
	level := ct.Level
	digits := ev.decomposeModUp(level, ct.C1, 1)
	u, v := p.Converter().GetPolyQP(level), p.Converter().GetPolyQP(level)

	ev.kskInnerProduct(level, digits, nil, swk, u, v, 1) // warm the operand pool
	if avg := testing.AllocsPerRun(50, func() {
		ev.kskInnerProduct(level, digits, nil, swk, u, v, 1)
	}); avg >= 1 {
		t.Errorf("kskInnerProduct allocates %.2f times per call in steady state", avg)
	}
}

// TestMulRelinAllocatesOnlyItsOutput: the raised tensor core draws d0, d1,
// d2, the raised digits and the raised pair from pools, so a steady-state
// MulRelin allocates its two output polynomials and nothing else
// ciphertext-sized (less than one limb of bookkeeping), and the merged Mul
// the same at one level down. GC is held off so the pools are not drained
// mid-run; the best of a few tries discards a goroutine migration's misses.
func TestMulRelinAllocatesOnlyItsOutput(t *testing.T) {
	tc, ev := checkedTestEval(t)
	a, b := encryptRandom(tc), encryptRandom(tc)
	limb := uint64(8 * tc.params.N())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		op    string
		call  func()
		limbs uint64
	}{
		{"MulRelin", func() { ev.MulRelin(a, b) }, uint64(2 * (a.Level + 1))},
		{"Mul", func() { ev.Mul(a, b) }, uint64(2 * a.Level)},
	} {
		c.call() // warm the pools
		best := ^uint64(0)
		var m0, m1 runtime.MemStats
		for try := 0; try < 5; try++ {
			runtime.ReadMemStats(&m0)
			c.call()
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		if best >= (c.limbs+1)*limb {
			t.Errorf("%s allocates %d B, want its %d output limbs (%d B) and under one limb more", c.op, best, c.limbs, c.limbs*limb)
		}
	}
}

// TestKskInnerProductThrashAllocFree: the product of a hoisted step whose
// key budget thrashes — two seed-only keys alternating through a budget
// that holds one, every digit a miss — allocates nothing either: each
// expansion lands in the buffer (and entry, and LRU element, and PRNG
// state) of the digit it evicts.
func TestKskInnerProductThrashAllocFree(t *testing.T) {
	steps := []int{1, 2}
	tc, keys, ct := vaultTestKeys(t, steps)
	p := tc.params
	level := ct.Level
	beta := p.Beta(level)
	ev := NewEvaluator(p, keys, WithKeyBudget(int64(beta)*digitBytes(p)))
	digits := ev.decomposeModUp(level, ct.C1, 1)
	u, v := p.Converter().GetPolyQP(level), p.Converter().GetPolyQP(level)

	g1, g2 := p.RingQ().GaloisElement(1), p.RingQ().GaloisElement(2)
	sweep := func() {
		ev.kskInnerProduct(level, digits, p.RingQ().AutomorphismNTTIndex(g1), &keys.Galois[g1].SwitchingKey, u, v, 1)
		ev.kskInnerProduct(level, digits, p.RingQ().AutomorphismNTTIndex(g2), &keys.Galois[g2].SwitchingKey, u, v, 1)
	}
	sweep()
	before := ev.KeyVaultStats()
	const runs = 20
	if avg := testing.AllocsPerRun(runs, sweep); avg >= 1 {
		t.Errorf("a thrashing sweep allocates %.2f times per two products", avg)
	}
	after := ev.KeyVaultStats()
	// AllocsPerRun runs the function once more to warm up.
	if got, want := after.Expansions-before.Expansions, uint64((runs+1)*2*beta); got != want {
		t.Errorf("%d expansions over the sweeps, want %d (every digit a miss)", got, want)
	}
	if after.Hits != before.Hits {
		t.Errorf("hits moved %d -> %d under a thrashing budget", before.Hits, after.Hits)
	}
}

// TestHoistedTransformThrashAllocatesNoKeys: over a whole hoisted
// transform, a budget that evicts every key allocates no more than a
// budget that keeps them all — the regenerated halves cost no fresh
// memory. (The transform itself allocates its result and small
// bookkeeping; that part is the same on both sides.)
func TestHoistedTransformThrashAllocatesNoKeys(t *testing.T) {
	diagIdx := []int{1, 2, 3, 4, 5, 6, 7, 8}
	tc := newTestContext(t)
	p := tc.params
	lt := NewLinearTransform(tc.enc, DiagsFromMatrix(randomBandedMatrix(p.Slots(), diagIdx)), p.MaxLevel(), p.Scale(), 0, true)
	keys := &EvaluationKeySet{Galois: tc.kg.GenGaloisKeys(lt.RotationSteps(), tc.sk)}
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(p.Slots(), 1)))
	db := digitBytes(p)
	quarter := int64(len(diagIdx)) * int64(p.Dnum()) * db / 4

	bytesPerOp := func(budget int64) uint64 {
		ev := NewEvaluator(p, cloneKeySet(t, keys), WithKeyBudget(budget))
		ev.EvalLinearTransformHoistedModDown(ct, lt) // fill the vault, warm the pools
		best := ^uint64(0)
		var m0, m1 runtime.MemStats
		for try := 0; try < 5; try++ {
			runtime.ReadMemStats(&m0)
			ev.EvalLinearTransformHoistedModDown(ct, lt)
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	resident, thrash := bytesPerOp(0), bytesPerOp(quarter)
	if thrash > resident+uint64(db)/2 {
		t.Errorf("thrashing budget allocates %d B per transform, resident budget %d B: more than half a key digit (%d B) apart", thrash, resident, db)
	}
}

// TestLinearTransformSpansOffAllocFree: without a recorder the transform's
// instrumentation — one op span with its attributes, a lite child per baby
// step, group sum and giant step, the rotation counter — allocates nothing.
func TestLinearTransformSpansOffAllocFree(t *testing.T) {
	ev := NewEvaluator(newTestContext(t).params, nil)
	if avg := testing.AllocsPerRun(100, func() {
		sp := ev.startOp("LinearTransform", 4, 1<<40, 64)
		sp.SetAttr("lt.n1", 16)
		sp.SetAttr("lt.babies", 16)
		sp.SetAttr("lt.giants", 5)
		ev.rec.Add("ckks.rotate", 19)
		for _, name := range []string{"ckks.lt.baby", "ckks.lt.accumulate", "ckks.lt.giant"} {
			ev.rec.StartLinked(name).End()
		}
		ev.endOp(sp)
	}); avg != 0 {
		t.Errorf("the recorder-off span path allocates %.2f times per transform", avg)
	}
}
