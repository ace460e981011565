package ckks

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fherr"
	"repro/internal/prng"
)

func ctxTestSetup(t *testing.T) (*Parameters, *Evaluator, *Ciphertext) {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN: 11, LogQ: []int{50, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "ckks op-context deterministic!!!")
	src := prng.NewSource(seed)
	kg := NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk, false)
	gks := kg.GenRotationKeys([]int{1, 2, 4}, sk, false)
	ev := NewEvaluator(params, &EvaluationKeySet{Rlk: rlk, Galois: gks})
	enc := NewEncoder(params)
	encSk := NewSecretKeyEncryptor(params, sk, src)
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(float64(i%13)*0.25-1, 0)
	}
	return params, ev, encSk.Encrypt(enc.Encode(msg))
}

// TestOpContextCancelTyped: a pre-cancelled context makes Do return
// fherr.ErrCanceled without starting work, whatever the op, and the base
// evaluator is untouched by it: the next Do under a live context and a
// direct core call both succeed, bit-identical to an evaluator that never
// saw a cancellation, with no "clear" call in between.
func TestOpContextCancelTyped(t *testing.T) {
	params, ev, ct := ctxTestSetup(t)
	fresh := NewEvaluator(params, ev.Keys())
	mul := func(ev *Evaluator) *Ciphertext { return ev.Mul(ct, ct) }
	rot := func(ev *Evaluator) *Ciphertext { return ev.Rotate(ct, 1) }
	want := mul(fresh)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, f := range map[string]coreOp{"Mul": mul, "Rotate": rot} {
		if out, err := ev.Do(ctx, "ckks."+name, f, ct); !errors.Is(err, fherr.ErrCanceled) || out != nil {
			t.Fatalf("%s under cancelled ctx: out = %v, err = %v, want nil, ErrCanceled", name, out, err)
		}
	}
	got, err := ev.Do(context.Background(), "ckks.Mul", mul, ct)
	if err != nil {
		t.Fatalf("Mul under a live ctx after a cancelled one: %v", err)
	}
	if !ctEqual(got, want) {
		t.Error("Do after a cancelled Do diverges from a never-cancelled evaluator")
	}
	if !ctEqual(mul(ev), want) {
		t.Error("direct call after a cancelled Do diverges from a never-cancelled evaluator")
	}
}

// TestOpContextDeadlineStopsWork: a deadline expiring mid-run aborts a
// long op sequence early with a typed error, within a latency bound far
// below the sequence's full runtime, and the result of a subsequent
// run on the same evaluator is bit-identical to the uncancelled one.
func TestOpContextDeadlineStopsWork(t *testing.T) {
	_, ev, ct := ctxTestSetup(t)
	run := func(ctx context.Context) (*Ciphertext, error) {
		out := ct
		var err error
		for i := 0; i < 40; i++ {
			in := out
			out, err = ev.Do(ctx, "ckks.Rotate", func(ev *Evaluator) *Ciphertext { return ev.Rotate(in, 1) }, in)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Reference: how long does the full sequence take, and what does it
	// produce? (Deterministic, so the post-cancel rerun must match.)
	t0 := time.Now()
	want, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	// Cancelled run: bind a deadline that expires a fraction in.
	ctx, cancel := context.WithTimeout(context.Background(), full/8)
	defer cancel()
	t0 = time.Now()
	_, err = run(ctx)
	elapsed := time.Since(t0)
	if !errors.Is(err, fherr.ErrCanceled) {
		t.Fatalf("deadline run: err = %v, want ErrCanceled", err)
	}
	if elapsed > full {
		t.Errorf("cancellation took %v, full sequence only %v — deadline did not stop work", elapsed, full)
	}

	// The evaluator must be fully reusable and bit-identical afterwards.
	got, err := run(context.Background())
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if !ctEqual(got, want) {
		t.Error("post-cancellation rerun diverges from reference — evaluator state corrupted")
	}
}

// TestOpContextParallelFanOut: cancellation works on the parallel path
// too (fan-outs route through ring.ParallelCtx). The hoisted rotations
// are reached through EvalLinearTransform, an op that never had a checked
// form of its own.
func TestOpContextParallelFanOut(t *testing.T) {
	params, ev, ct := ctxTestSetup(t)
	ev.SetWorkers(2)
	diags := map[int][]complex128{}
	for _, d := range []int{1, 2, 4} {
		diags[d] = make([]complex128, params.Slots())
	}
	lt := NewLinearTransform(NewEncoder(params), diags, params.MaxLevel(), params.Scale(), 0, false)
	transform := func(ev *Evaluator) *Ciphertext { return ev.EvalLinearTransform(ct, lt) }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.Do(ctx, "ckks.EvalLinearTransform", transform, ct); !errors.Is(err, fherr.ErrCanceled) {
		t.Fatalf("EvalLinearTransform under cancelled ctx: err = %v, want ErrCanceled", err)
	}
	if _, err := ev.Do(context.Background(), "ckks.EvalLinearTransform", transform, ct); err != nil {
		t.Fatalf("EvalLinearTransform under a live ctx after a cancelled one: %v", err)
	}
}
