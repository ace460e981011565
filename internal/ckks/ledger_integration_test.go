package ckks_test

// External test package: the ledger imports ckks, so wiring both
// together has to live outside package ckks. This is the end-to-end
// check that an instrumented evaluator produces the span hierarchy and
// cost-ledger annotations `simfhe validate` consumes, and
// the home of the recorder-overhead benchmarks, which price every op span
// through the real ledger.

import (
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/prng"
)

func TestEvaluatorSpanHierarchyWithLedger(t *testing.T) {
	// The calibration parameter point: 12 Q-limbs, dnum 4 → 4 special limbs.
	logQ := []int{48}
	for i := 0; i < 11; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: logQ, LogP: []int{50, 50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "ledger integration test")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{
		Rlk: kg.GenRelinearizationKey(sk, false),
	})
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	model, err := ledger.ForParameters(params)
	if err != nil {
		t.Fatal(err)
	}
	ev.SetCostModel(model)

	enc := ckks.NewEncoder(params)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%7)/7, 0)
	}
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	ct0 := encryptor.Encrypt(enc.Encode(vals))
	ct1 := encryptor.Encrypt(enc.Encode(vals))
	level := ct0.Level
	ev.Mul(ct0, ct1)

	snap := rec.Snapshot()
	byName := map[string]obs.SpanRecord{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	mult, ok := byName["ckks.Mult"]
	if !ok {
		t.Fatal("no ckks.Mult span")
	}
	if mult.Parent != 0 {
		t.Errorf("Mult should be a root span, parent = %d", mult.Parent)
	}
	// The merged Mult composes no unfused op: its children are the tensor,
	// key-product and lift stages and the rns spans, all directly under it.
	for _, name := range []string{"ckks.MulRelin", "ckks.Rescale", "ckks.KeySwitch"} {
		if _, ok := byName[name]; ok {
			t.Errorf("%s span under a merged Mult", name)
		}
	}
	for _, name := range []string{"ckks.mult.tensor", "ckks.ks.product", "ckks.mult.lift", "rns.ModUpDigit", "rns.ModDown"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span", name)
		}
		if sp.Parent != mult.ID {
			t.Errorf("%s (parent %d) is not a child of Mult %d", name, sp.Parent, mult.ID)
		}
	}

	// Ledger annotations: prediction, ciphertext telemetry, and a
	// measured-bytes window that agrees with the model's order of
	// magnitude.
	wantPred, ok := model.PredictOp("Mult", level+1, 0)
	if !ok {
		t.Fatalf("model does not cover Mult at %d limbs", level+1)
	}
	if got := mult.Attrs["pred.bytes"]; got != float64(wantPred.Bytes) {
		t.Errorf("pred.bytes = %v, want %d", got, wantPred.Bytes)
	}
	if got := mult.Attrs["pred.ntt"]; got != float64(wantPred.NTT) {
		t.Errorf("pred.ntt = %v, want %d", got, wantPred.NTT)
	}
	if got := mult.Attrs["ct.level"]; got != float64(level) {
		t.Errorf("ct.level = %v, want %d", got, level)
	}
	if _, ok := mult.Attrs["ct.scale_log2"]; !ok {
		t.Error("ct.scale_log2 attr missing")
	}
	var meas uint64
	for _, name := range obs.ByteCounters {
		meas += mult.Counters[name]
	}
	if meas == 0 {
		t.Fatal("no kernel byte counter moved under the Mult span")
	}
	// Kernel-counter bytes are a raw-traffic proxy, not cache-filtered;
	// they should land within a small factor of the model's DRAM figure.
	if ratio := float64(meas) / float64(wantPred.Bytes); ratio < 0.2 || ratio > 5 {
		t.Errorf("measured/predicted = %.2f (meas %d, pred %d): attribution window looks wrong", ratio, meas, wantPred.Bytes)
	}

	// The prediction is the merged tree's: the model's limb-transform count
	// is the one the kernels ran.
	if got := mult.Counters["ring.ntt"] + mult.Counters["ring.intt"]; got != wantPred.NTT {
		t.Errorf("Mult ran %d limb transforms, the model predicts %d", got, wantPred.NTT)
	}

	// The unfused composition still carries its own predictions, the
	// children annotated too (the calibration's mult probe relies on it).
	rec.Reset()
	ev.Rescale(ev.MulRelin(ct0, ct1))
	for _, sp := range rec.Snapshot().Spans {
		byName[sp.Name] = sp
	}
	for _, name := range []string{"ckks.MulRelin", "ckks.Rescale"} {
		if _, ok := byName[name].Attrs["pred.bytes"]; !ok {
			t.Errorf("%s span missing pred.bytes", name)
		}
	}
}

// TestLinearTransformSpanTree: a transform is one ckks.LinearTransform op
// span — telemetry attributes, no pred.* (the ledger has no such kind; the
// frozen bench adds its own prediction for the call) — that directly owns
// two lite children per raised limb of its sweep (the baby steps' limb and
// the giant groups' sums of it) and one per keyed giant step, next to the rns spans of its 1 + #giant-steps ModUps and
// 2 + #giant-steps ModDowns (one per giant step, a pair to close); and
// recording changes no output bit.
func TestLinearTransformSpanTree(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: []int{48, 40, 40, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "ledger integration test")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	enc := ckks.NewEncoder(params)
	n := params.Slots()
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 2, 3, 5, 9} { // n1 = 4: babies {0,1,2,3}, giants {0,4,8}
		vec := make([]complex128, n)
		for i := range vec {
			vec[i] = complex(float64((i+d)%5)/5, 0)
		}
		diags[d] = vec
	}
	lt := ckks.NewLinearTransform(enc, diags, params.MaxLevel(), params.Scale(), 4, false)
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Galois: kg.GenGaloisKeys(lt.RotationSteps(), sk)})
	ct := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(diags[1]))
	untraced := ev.EvalLinearTransform(ct, lt)

	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	defer ev.SetRecorder(nil)
	model, err := ledger.ForParameters(params)
	if err != nil {
		t.Fatal(err)
	}
	ev.SetCostModel(model)
	traced := ev.EvalLinearTransform(ct, lt)
	if !traced.C0.Equal(untraced.C0) || !traced.C1.Equal(untraced.C1) {
		t.Error("traced transform differs from the untraced one")
	}

	var op obs.SpanRecord
	children := map[string]int{}
	spans := rec.Snapshot().Spans
	for _, sp := range spans {
		if sp.Name == "ckks.LinearTransform" {
			op = sp
		}
	}
	if op.ID == 0 {
		t.Fatal("no ckks.LinearTransform span")
	}
	for _, sp := range spans {
		if sp.Parent == op.ID {
			children[sp.Name]++
		}
	}
	for key, want := range map[string]float64{
		"ct.level": float64(ct.Level), "op.fanout": 6, "lt.n1": 4, "lt.babies": 4, "lt.giants": 3,
	} {
		if got, ok := op.Attrs[key]; !ok || got != want {
			t.Errorf("attr %s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	for key := range op.Attrs {
		if strings.HasPrefix(key, "pred.") {
			t.Errorf("span carries %s: the transform must not be predicted twice", key)
		}
	}
	beta, limbs := params.Beta(ct.Level), ct.Level+1+params.Alpha()
	for name, want := range map[string]int{
		"ckks.lt.baby": limbs, "ckks.lt.accumulate": limbs, "ckks.lt.giant": 2,
		"rns.ModUpDigit": 3 * beta, "rns.ModDown": 2 + 2,
	} {
		if children[name] != want {
			t.Errorf("%d %s children, want %d (all children: %v)", children[name], name, want, children)
		}
	}
	if got := op.Counters["ckks.rotate"]; got != 5 {
		t.Errorf("ckks.rotate = %d over the transform, want 5 keyed steps", got)
	}
}

// benchMul builds the recorder-overhead benchmarks' evaluator and
// operands: the package tests' parameter point (N = 2^10, 5 Q + 2 P
// limbs), a relinearization key and two full-level ciphertexts.
func benchMul(b *testing.B) (*ckks.Evaluator, *ckks.Ciphertext, *ckks.Ciphertext) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: []int{45, 40, 40, 40, 40}, LogP: []int{45, 45}, LogScale: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "ledger integration test")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: kg.GenRelinearizationKey(sk, false)})
	enc := ckks.NewEncoder(params)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%7)/7, 0)
	}
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	return ev, encryptor.Encrypt(enc.Encode(vals)), encryptor.Encrypt(enc.Encode(vals))
}

// BenchmarkMultRecorderOff is the baseline: the instrumentation is
// compiled in but the recorder is nil, so every telemetry call site costs
// exactly one nil check. Compare against BenchmarkMultRecorderOn to read
// off the enabled-telemetry overhead (acceptance target: < 5%).
func BenchmarkMultRecorderOff(b *testing.B) {
	ev, ct0, ct1 := benchMul(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Mul(ct0, ct1)
	}
}

// BenchmarkMultRecorderOn runs the same multiply with a live recorder
// and the cost ledger attached: hierarchical spans on every sub-operation,
// ledger predictions and ciphertext telemetry per op span, counter adds
// in the kernels, and a histogram observation per span end.
func BenchmarkMultRecorderOn(b *testing.B) {
	ev, ct0, ct1 := benchMul(b)
	ev.SetRecorder(obs.NewRecorder())
	model, err := ledger.ForParameters(ev.Params())
	if err != nil {
		b.Fatal(err)
	}
	ev.SetCostModel(model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Mul(ct0, ct1)
	}
}
