package ckks

import (
	"runtime"
	"testing"
)

// evalWorkerCounts is the golden-equality matrix demanded by the paper's
// limb-independence argument: serial, two workers, every core.
func evalWorkerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

func ctEqual(a, b *Ciphertext) bool {
	return a.Level == b.Level && sameScale(a.Scale, b.Scale) &&
		a.C0.Equal(b.C0) && a.C1.Equal(b.C1)
}

// TestEvaluatorBitIdenticalAcrossWorkers runs the key-switch-bearing
// primitives (Mult, Rotate, Rescale) under every worker count and demands
// bit-identical ciphertexts — not just equal decryptions.
func TestEvaluatorBitIdenticalAcrossWorkers(t *testing.T) {
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, true)
	gks := tc.kg.GenRotationKeys([]int{1, 3}, tc.sk, true)
	keys := &EvaluationKeySet{Rlk: rlk, Galois: gks}

	vals := randomValues(tc.params.Slots(), 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(vals))

	var goldenMul, goldenRot *Ciphertext
	for i, w := range evalWorkerCounts() {
		ev := NewEvaluator(tc.params, keys, WithWorkers(w))
		if ev.Workers() != w {
			t.Fatalf("WithWorkers(%d) left Workers() = %d", w, ev.Workers())
		}
		mul := ev.Mul(ct, ct)
		rot := ev.Rotate(ct, 3)
		if i == 0 {
			goldenMul, goldenRot = mul, rot
			continue
		}
		if !ctEqual(mul, goldenMul) {
			t.Errorf("Mul with %d workers is not bit-identical to serial", w)
		}
		if !ctEqual(rot, goldenRot) {
			t.Errorf("Rotate with %d workers is not bit-identical to serial", w)
		}
	}
}

// TestRotateHoistedBitIdenticalAcrossWorkers covers the rotation-parallel
// fan-out: many steps sharing one Decomp+ModUp, fanned across workers.
func TestRotateHoistedBitIdenticalAcrossWorkers(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{0, 1, 2, 5, 7}
	gks := tc.kg.GenRotationKeys(steps, tc.sk, true)
	keys := &EvaluationKeySet{Galois: gks}

	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))

	var golden map[int]*Ciphertext
	for i, w := range evalWorkerCounts() {
		ev := NewEvaluator(tc.params, keys, WithWorkers(w))
		got := ev.RotateHoisted(ct, steps)
		if i == 0 {
			golden = got
			continue
		}
		for _, k := range steps {
			if !ctEqual(got[k], golden[k]) {
				t.Errorf("RotateHoisted step %d with %d workers is not bit-identical to serial", k, w)
			}
		}
	}
}

// TestHoistedModDownBitIdenticalAcrossWorkers covers the transform's
// baby-step fan-out (each step into its own raised pair) and its serial
// giant chain, whose group sums, basis changes, key products and σ(u)
// passes split over limbs: the output must match the serial run word for
// word. n1 = 4 puts diagonals 9 and 20 in giant groups on a five-step
// σ_4 chain; the computed split keeps them all baby steps.
func TestHoistedModDownBitIdenticalAcrossWorkers(t *testing.T) {
	diagIdx := []int{0, 1, 3, 9, 20}
	for _, n1 := range []int{0, 4} {
		tc, evSerial, lt, _ := setupLinTransTest(t, diagIdx, n1)
		ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))

		golden := evSerial.EvalLinearTransformHoistedModDown(ct, lt)
		for _, w := range evalWorkerCounts()[1:] {
			evSerial.SetWorkers(w)
			got := evSerial.EvalLinearTransformHoistedModDown(ct, lt)
			if !ctEqual(got, golden) {
				t.Errorf("n1=%d: transform with %d workers is not bit-identical to serial", n1, w)
			}
		}
	}
}

// TestSetWorkersDefaults pins the knob semantics: n ≤ 0 resolves to
// GOMAXPROCS at call time, constructor default is serial.
func TestSetWorkersDefaults(t *testing.T) {
	ev := NewEvaluator(newTestContext(t).params, nil)
	if ev.Workers() != 1 {
		t.Errorf("default Workers() = %d, want 1", ev.Workers())
	}
	ev.SetWorkers(0)
	if ev.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("SetWorkers(0) gave %d, want GOMAXPROCS=%d", ev.Workers(), runtime.GOMAXPROCS(0))
	}
	ev.SetWorkers(-3)
	if ev.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("SetWorkers(-3) gave %d, want GOMAXPROCS", ev.Workers())
	}
	ev.SetWorkers(4)
	if ev.Workers() != 4 {
		t.Errorf("SetWorkers(4) gave %d", ev.Workers())
	}
}
