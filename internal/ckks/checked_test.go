package ckks

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/fherr"
)

// checkedTestEval returns a context plus an evaluator holding a relin key
// and rotation keys for steps 1 and 2.
func checkedTestEval(t *testing.T, opts ...EvaluatorOption) (*testContext, *Evaluator) {
	t.Helper()
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	gks := tc.kg.GenRotationKeys([]int{1, 2}, tc.sk, false)
	return tc, NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk, Galois: gks}, opts...)
}

func encryptRandom(tc *testContext) *Ciphertext {
	return tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
}

// coreOp is an op as Do takes it: a closure over its operands that runs
// on whichever evaluator it is handed.
type coreOp = func(*Evaluator) *Ciphertext

// do crosses the checked boundary under a context that never expires.
func do(ev *Evaluator, op string, f coreOp, ins ...*Ciphertext) (*Ciphertext, error) {
	return ev.Do(context.Background(), "ckks."+op, f, ins...)
}

func doAdd(ev *Evaluator, a, b *Ciphertext) (*Ciphertext, error) {
	return do(ev, "Add", func(ev *Evaluator) *Ciphertext { return ev.Add(a, b) }, a, b)
}

func doMul(ev *Evaluator, a, b *Ciphertext) (*Ciphertext, error) {
	return do(ev, "Mul", func(ev *Evaluator) *Ciphertext { return ev.Mul(a, b) }, a, b)
}

func doRotate(ev *Evaluator, a *Ciphertext, k int) (*Ciphertext, error) {
	return do(ev, "Rotate", func(ev *Evaluator) *Ciphertext { return ev.Rotate(a, k) }, a)
}

func doNeg(ev *Evaluator, a *Ciphertext) (*Ciphertext, error) {
	return do(ev, "Neg", func(ev *Evaluator) *Ciphertext { return ev.Neg(a) }, a)
}

func doDropLevel(ev *Evaluator, a *Ciphertext, level int) (*Ciphertext, error) {
	return do(ev, "DropLevel", func(ev *Evaluator) *Ciphertext { return ev.DropLevel(a, level) }, a)
}

// TestCheckedOpsMatchPanickingOps: whatever runs through Do — ops that
// once had a hand-written checked twin and ops that never did — returns
// what the direct call on the base evaluator returns, bit for bit.
func TestCheckedOpsMatchPanickingOps(t *testing.T) {
	tc, ev := checkedTestEval(t)
	a, b := encryptRandom(tc), encryptRandom(tc)
	pt := tc.enc.Encode(randomValues(tc.params.Slots(), 1))
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 2} {
		diags[d] = randomValues(tc.params.Slots(), 1)
	}
	lt := NewLinearTransform(tc.enc, diags, tc.params.MaxLevel(), tc.params.Scale(), 0, false)

	ops := []struct {
		name string
		f    coreOp
		ins  []*Ciphertext
	}{
		{"Add", func(ev *Evaluator) *Ciphertext { return ev.Add(a, b) }, []*Ciphertext{a, b}},
		{"Sub", func(ev *Evaluator) *Ciphertext { return ev.Sub(a, b) }, []*Ciphertext{a, b}},
		{"Neg", func(ev *Evaluator) *Ciphertext { return ev.Neg(a) }, []*Ciphertext{a}},
		{"AddPlain", func(ev *Evaluator) *Ciphertext { return ev.AddPlain(a, pt) }, []*Ciphertext{a}},
		{"MulPlainRescale", func(ev *Evaluator) *Ciphertext { return ev.MulPlainRescale(a, pt) }, []*Ciphertext{a}},
		{"Mul", func(ev *Evaluator) *Ciphertext { return ev.Mul(a, b) }, []*Ciphertext{a, b}},
		{"MulRelin", func(ev *Evaluator) *Ciphertext { return ev.MulRelin(a, b) }, []*Ciphertext{a, b}},
		{"Square", func(ev *Evaluator) *Ciphertext { return ev.Square(a) }, []*Ciphertext{a}},
		{"Rotate", func(ev *Evaluator) *Ciphertext { return ev.Rotate(a, 1) }, []*Ciphertext{a}},
		{"InnerSum", func(ev *Evaluator) *Ciphertext { return ev.InnerSum(a, 4) }, []*Ciphertext{a}},
		{"DropLevel", func(ev *Evaluator) *Ciphertext { return ev.DropLevel(a, a.Level-1) }, []*Ciphertext{a}},
		{"MatchScaleLevel", func(ev *Evaluator) *Ciphertext { return ev.MatchScaleLevel(a, a.Level-1, a.Scale) }, []*Ciphertext{a}},
		{"MulByI", func(ev *Evaluator) *Ciphertext { return ev.MulByI(a) }, []*Ciphertext{a}},
		{"EvalLinearTransform", func(ev *Evaluator) *Ciphertext { return ev.EvalLinearTransform(a, lt) }, []*Ciphertext{a}},
		{"Mul+Rotate", func(ev *Evaluator) *Ciphertext { return ev.Rotate(ev.Mul(a, b), 2) }, []*Ciphertext{a, b}},
	}
	for _, o := range ops {
		got, err := do(ev, o.name, o.f, o.ins...)
		if err != nil {
			t.Fatalf("Do(%s): unexpected error %v", o.name, err)
		}
		if want := o.f(ev); !ctEqual(got, want) {
			t.Fatalf("Do(%s) result differs from the direct call", o.name)
		}
	}
}

func TestCheckedOpsReturnTypedErrors(t *testing.T) {
	tc, ev := checkedTestEval(t)
	a, b := encryptRandom(tc), encryptRandom(tc)
	mutant := func(base *Ciphertext, mutate func(c *Ciphertext)) *Ciphertext {
		c := base.CopyNew()
		mutate(c)
		return c
	}
	addPlain := func(pt *Plaintext) (*Ciphertext, error) {
		if err := tc.params.ValidatePlaintext(pt); err != nil {
			return nil, err
		}
		return do(ev, "AddPlain", func(ev *Evaluator) *Ciphertext { return ev.AddPlain(a, pt) }, a)
	}

	cases := []struct {
		name string
		call func() (*Ciphertext, error)
		want error
	}{
		{"nil operand", func() (*Ciphertext, error) { return doAdd(ev, a, nil) }, fherr.ErrDegree},
		{"scale mismatch", func() (*Ciphertext, error) {
			return doAdd(ev, a, mutant(b, func(c *Ciphertext) { c.Scale *= 2 }))
		}, fherr.ErrScaleMismatch},
		{"bad scale", func() (*Ciphertext, error) {
			return doAdd(ev, a, mutant(b, func(c *Ciphertext) { c.Scale = math.NaN() }))
		}, fherr.ErrScaleMismatch},
		{"level out of range", func() (*Ciphertext, error) {
			return doNeg(ev, mutant(a, func(c *Ciphertext) { c.Level = tc.params.MaxLevel() + 7 }))
		}, fherr.ErrLevelMismatch},
		{"limb count vs level", func() (*Ciphertext, error) {
			return doNeg(ev, mutant(a, func(c *Ciphertext) { c.C1.Coeffs = c.C1.Coeffs[:c.Level] }))
		}, fherr.ErrLevelMismatch},
		{"short limb", func() (*Ciphertext, error) {
			return doNeg(ev, mutant(a, func(c *Ciphertext) { c.C0.Coeffs[0] = c.C0.Coeffs[0][:8] }))
		}, fherr.ErrLimbLength},
		{"coefficient form", func() (*Ciphertext, error) {
			return doNeg(ev, mutant(a, func(c *Ciphertext) { c.C0.IsNTT = false }))
		}, fherr.ErrNTTDomain},
		{"rescale at level 0", func() (*Ciphertext, error) {
			c, err := doDropLevel(ev, a, 0)
			if err != nil {
				return nil, err
			}
			return do(ev, "Rescale", func(ev *Evaluator) *Ciphertext { return ev.Rescale(c) }, c)
		}, fherr.ErrLevelMismatch},
		// DropLevel bounds its target on both sides: a negative level must
		// not reach the slice expressions (-1 would yield a limb-less
		// ciphertext, -2 an out-of-range slice classified ErrInternal).
		{"drop to level -1", func() (*Ciphertext, error) { return doDropLevel(ev, a, -1) }, fherr.ErrLevelMismatch},
		{"drop to level -2", func() (*Ciphertext, error) { return doDropLevel(ev, a, -2) }, fherr.ErrLevelMismatch},
		{"drop above the level", func() (*Ciphertext, error) { return doDropLevel(ev, a, a.Level+1) }, fherr.ErrLevelMismatch},
		{"missing galois key", func() (*Ciphertext, error) { return doRotate(ev, a, 5) }, fherr.ErrKeyMissing},
		{"missing hoisted galois key", func() (*Ciphertext, error) {
			return do(ev, "RotateHoisted", func(ev *Evaluator) *Ciphertext { return ev.RotateHoisted(a, []int{1, 9})[1] }, a)
		}, fherr.ErrKeyMissing},
		{"bad innersum width", func() (*Ciphertext, error) {
			return do(ev, "InnerSum", func(ev *Evaluator) *Ciphertext { return ev.InnerSum(a, 3) }, a)
		}, fherr.ErrDegree},
		{"nil plaintext", func() (*Ciphertext, error) { return addPlain(nil) }, fherr.ErrDegree},
		{"coefficient-form plaintext", func() (*Ciphertext, error) {
			pt := tc.enc.Encode(randomValues(tc.params.Slots(), 1))
			pt.Value.IsNTT = false
			return addPlain(pt)
		}, fherr.ErrNTTDomain},
	}
	for _, c := range cases {
		out, err := c.call()
		if err == nil {
			t.Fatalf("%s: expected error, got nil", c.name)
		}
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: error %v does not wrap %v", c.name, err, c.want)
		}
		if out != nil {
			t.Fatalf("%s: non-nil ciphertext alongside error", c.name)
		}
	}
}

func TestMissingRelinKeyIsTypedError(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	a := encryptRandom(tc)
	_, err := do(ev, "MulRelin", func(ev *Evaluator) *Ciphertext { return ev.MulRelin(a, a) }, a, a)
	if !errors.Is(err, fherr.ErrKeyMissing) {
		t.Fatalf("MulRelin without rlk: %v, want ErrKeyMissing", err)
	}
}

func TestIntegritySealAndChecksumDetection(t *testing.T) {
	tc, ev := checkedTestEval(t, WithIntegrity())
	a, b := encryptRandom(tc), encryptRandom(tc)

	sum, err := doAdd(ev, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sum == 0 {
		t.Fatal("integrity on, but result not sealed")
	}
	if err := tc.params.Validate(sum); err != nil {
		t.Fatalf("freshly sealed ciphertext failed validation: %v", err)
	}

	// Payload corruption after sealing must surface as ErrChecksum.
	sum.C0.Coeffs[0][3] ^= 1
	if err := tc.params.Validate(sum); !errors.Is(err, fherr.ErrChecksum) {
		t.Fatalf("bit flip after seal: %v, want ErrChecksum", err)
	}
	sum.C0.Coeffs[0][3] ^= 1
	if err := tc.params.Validate(sum); err != nil {
		t.Fatalf("restored ciphertext still invalid: %v", err)
	}

	// Header corruption too.
	sum.Scale *= 1.5
	if err := tc.params.Validate(sum); !errors.Is(err, fherr.ErrChecksum) {
		t.Fatalf("scale change after seal: %v, want ErrChecksum", err)
	}

	// Copies start unsealed and may be mutated freely.
	cp := sum.CopyNew()
	if cp.Sum != 0 {
		t.Fatal("CopyNew propagated the checksum")
	}
}

func TestCheckedOpsAcceptSealedInputs(t *testing.T) {
	tc, ev := checkedTestEval(t, WithIntegrity())
	a, b := encryptRandom(tc), encryptRandom(tc)
	x, err := doMul(ev, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Sealed output feeds the next op: the input validation recomputes and
	// accepts the checksum, and the result is sealed again.
	y, err := doRotate(ev, x, 1)
	if err != nil {
		t.Fatalf("sealed input rejected: %v", err)
	}
	if y.Sum == 0 {
		t.Fatal("second-generation result not sealed")
	}
}

func TestChecksumNeverZero(t *testing.T) {
	tc := newTestContext(t)
	ct := encryptRandom(tc)
	if ct.ComputeChecksum() == 0 {
		t.Fatal("checksum folded to the unsealed sentinel")
	}
}
