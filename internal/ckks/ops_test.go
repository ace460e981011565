package ckks

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/fherr"
	"repro/internal/obs"
)

// TestOpTable pins every op-table entry to the method it names: Apply
// writes the bytes the method writes when called directly through Do at
// the same site, and both record the same ckks.<Op>E boundary span. An
// unknown name and a binary op without b are usage errors that run no
// kernel.
func TestOpTable(t *testing.T) {
	tc := newTestContext(t)
	gks := tc.kg.GenRotationKeys([]int{1, 2}, tc.sk, false)
	ck := tc.kg.GenConjugationKey(tc.sk, false)
	gks[ck.GaloisEl] = ck
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: tc.kg.GenRelinearizationKey(tc.sk, false), Galois: gks})
	a, b := encryptRandom(tc), encryptRandom(tc)
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	defer ev.SetRecorder(nil)
	ctx := context.Background()

	if _, err := LookupOp("frobnicate"); !errors.Is(err, fherr.ErrUsage) {
		t.Errorf("unknown op: %v, want ErrUsage", err)
	}
	add, err := LookupOp("add")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ev.Apply(ctx, add, a, nil, 0); !errors.Is(err, fherr.ErrUsage) || out != nil {
		t.Errorf("add without b: %v, want ErrUsage and no result", err)
	}
	if n := rec.Counter("ring.ntt"); n != 0 {
		t.Errorf("usage errors ran %d NTTs, want 0", n)
	}

	direct := map[string]struct {
		site string
		by   int
		f    func(ev *Evaluator) *Ciphertext
		ins  []*Ciphertext
	}{
		"add":       {"ckks.Add", 0, func(ev *Evaluator) *Ciphertext { return ev.Add(a, b) }, []*Ciphertext{a, b}},
		"sub":       {"ckks.Sub", 0, func(ev *Evaluator) *Ciphertext { return ev.Sub(a, b) }, []*Ciphertext{a, b}},
		"mul":       {"ckks.Mul", 0, func(ev *Evaluator) *Ciphertext { return ev.Mul(a, b) }, []*Ciphertext{a, b}},
		"square":    {"ckks.Square", 0, func(ev *Evaluator) *Ciphertext { return ev.Square(a) }, []*Ciphertext{a}},
		"rescale":   {"ckks.Rescale", 0, func(ev *Evaluator) *Ciphertext { return ev.Rescale(a) }, []*Ciphertext{a}},
		"droplevel": {"ckks.DropLevel", 1, func(ev *Evaluator) *Ciphertext { return ev.DropLevel(a, 1) }, []*Ciphertext{a}},
		"rotate":    {"ckks.Rotate", 2, func(ev *Evaluator) *Ciphertext { return ev.Rotate(a, 2) }, []*Ciphertext{a}},
		"conjugate": {"ckks.Conjugate", 0, func(ev *Evaluator) *Ciphertext { return ev.Conjugate(a) }, []*Ciphertext{a}},
		"innersum":  {"ckks.InnerSum", 4, func(ev *Evaluator) *Ciphertext { return ev.InnerSum(a, 4) }, []*Ciphertext{a}},
	}
	if names := OpNames(); len(names) != len(direct) {
		t.Fatalf("op table names %v, want the %d ops below", names, len(direct))
	}
	serialize := func(ct *Ciphertext) []byte {
		var buf bytes.Buffer
		if _, err := ct.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// spanOf runs call under a fresh recorder window and returns the
	// result with the names of the boundary spans it recorded.
	spanOf := func(call func() (*Ciphertext, error)) (*Ciphertext, []string) {
		rec.Reset()
		out, err := call()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sp := range rec.Snapshot().Spans {
			if sp.Parent == 0 {
				names = append(names, sp.Name)
			}
		}
		return out, names
	}
	for _, name := range OpNames() {
		want, ok := direct[name]
		if !ok {
			t.Errorf("op %q has no direct call in this test", name)
			continue
		}
		op, err := LookupOp(name)
		if err != nil {
			t.Fatal(err)
		}
		if op.Site != want.site || op.Binary != (len(want.ins) == 2) {
			t.Errorf("%s: site %q binary %v, want %q binary %v", name, op.Site, op.Binary, want.site, len(want.ins) == 2)
		}
		got, gotSpans := spanOf(func() (*Ciphertext, error) { return ev.Apply(ctx, op, a, b, want.by) })
		ref, refSpans := spanOf(func() (*Ciphertext, error) { return ev.Do(ctx, want.site, want.f, want.ins...) })
		if !bytes.Equal(serialize(got), serialize(ref)) {
			t.Errorf("%s: Apply output differs from the direct %s call", name, want.site)
		}
		if len(gotSpans) != 1 || gotSpans[0] != want.site+"E" || len(refSpans) != 1 || refSpans[0] != gotSpans[0] {
			t.Errorf("%s: Apply spans %v, direct spans %v, want [%sE] both", name, gotSpans, refSpans, want.site)
		}
	}
}
