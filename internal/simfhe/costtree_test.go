package simfhe

import (
	"strings"
	"testing"
)

// ctxMatrix spans the configurations TestCostGolden pins the model under:
// both parameter sets, cache sizes from streaming to ample, and every
// optimization family (the merge/no-merge fork changes the Mult tree
// shape).
func ctxMatrix() []Ctx {
	var out []Ctx
	for _, p := range []Params{Baseline(), Optimal()} {
		for _, mb := range []int{2, 32, 64} {
			for _, opts := range []OptSet{NoOpts(), CachingOpts(), AllOpts(),
				{ModDownMerge: true}, {CacheO1: true}} {
				out = append(out, NewCtx(p, MB(mb), opts))
			}
		}
	}
	return out
}

func TestCostTimesGuards(t *testing.T) {
	c := Cost{MulMod: 1 << 40}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	// A negative repetition is a signed credit: it negates exactly
	// (mod 2^64) instead of silently scaling by a near-2^64 factor.
	if got := c.Times(-1).Plus(c); got != (Cost{}) {
		t.Errorf("Times(-1) is not an exact negation: %+v", got)
	}
	mustPanic("Times overflow", func() { Cost{MulMod: 1 << 62}.Times(4) })
	mustPanic("Times signed-min overflow", func() { Cost{MulMod: 1 << 63}.Times(-1) })
	mustPanic("PlusChecked overflow", func() {
		Cost{MulMod: ^uint64(0)}.PlusChecked(Cost{MulMod: 1})
	})
	mustPanic("credit underflow", func() {
		(&CostTree{Name: "x", Credit: Cost{CtRead: 1}}).Total()
	})
	// The happy paths still work.
	if got := c.Times(3).MulMod; got != 3<<40 {
		t.Errorf("Times(3) = %d", got)
	}
	if got := c.PlusChecked(c).MulMod; got != 2<<40 {
		t.Errorf("PlusChecked = %d", got)
	}
}

func TestRenderTree(t *testing.T) {
	ctx := NewCtx(Baseline(), MB(2), NoOpts())
	var sb strings.Builder
	ctx.MultTree(ctx.P.L).Render(&sb)
	out := sb.String()
	for _, want := range []string{"Mult", "KeySwitch", "ModUp", "Rescale", "Gops"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
