package simfhe

import (
	"strings"
	"testing"
)

func schedCtx() Ctx { return NewCtx(Optimal(), MB(32), AllOpts()) }

func TestParseSchedule(t *testing.T) {
	src := `
name: helr-iteration
# forward pass
mult x5
rotate x16   # rotate-and-sum
ptmult x4
add x6
conjugate
bootstrap
`
	s, err := ParseSchedule(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "helr-iteration" {
		t.Errorf("name = %q", s.Name)
	}
	want := []Step{
		{OpMult, 5}, {OpRotate, 16}, {OpPtMult, 4}, {OpAdd, 6}, {OpConjugate, 1}, {OpBootstrap, 1},
	}
	if len(s.Steps) != len(want) {
		t.Fatalf("steps = %v", s.Steps)
	}
	for i, st := range want {
		if s.Steps[i] != st {
			t.Errorf("step %d = %v, want %v", i, s.Steps[i], st)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, src := range []string{
		"",                // empty
		"frobnicate",      // unknown op
		"mult xzero",      // bad count
		"mult x0",         // zero count
		"mult x3 trailer", // trailing tokens
	} {
		if _, err := ParseSchedule(strings.NewReader(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestRunScheduleLevels(t *testing.T) {
	ctx := schedCtx()
	bd := ctx.Bootstrap()
	fresh := bd.LimbsAfter

	// Multiplications descend one level each.
	s := Schedule{Steps: []Step{{OpMult, 3}}}
	res, err := ctx.RunSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLimbs != fresh-3 {
		t.Errorf("final limbs %d, want %d", res.FinalLimbs, fresh-3)
	}
	if res.Bootstraps != 0 {
		t.Errorf("unexpected bootstraps: %d", res.Bootstraps)
	}
	// Rotations are level-neutral.
	res, _ = ctx.RunSchedule(Schedule{Steps: []Step{{OpRotate, 10}}})
	if res.FinalLimbs != fresh {
		t.Errorf("rotations changed the level: %d", res.FinalLimbs)
	}
}

func TestRunScheduleAutoBootstrap(t *testing.T) {
	ctx := schedCtx()
	bd := ctx.Bootstrap()
	fresh := bd.LimbsAfter

	// More multiplications than one budget: a bootstrap must appear.
	s := Schedule{Steps: []Step{{OpMult, fresh + 3}}}
	res, err := ctx.RunSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", res.Bootstraps)
	}
	// The bootstrap's cost is included.
	noBootRes, _ := ctx.RunSchedule(Schedule{Steps: []Step{{OpMult, fresh - 1}}})
	if res.Total.Bytes() <= noBootRes.Total.Bytes()+ctx.Bootstrap().Total().Bytes()/2 {
		t.Error("auto-bootstrap cost not charged")
	}
	// Exactly the step that ran out of levels carries the mark, every step
	// is charged its recorded tree, and the steps plus the inserted
	// bootstrap account for the whole total.
	sum := bd.Total().Times(res.Bootstraps)
	for i, sc := range res.PerStep {
		if want := i == fresh-1; sc.AutoBootstrap != want {
			t.Errorf("step %d: AutoBootstrap = %v, want %v", i, sc.AutoBootstrap, want)
		}
		if sc.Tree.Total() != sc.Cost {
			t.Errorf("step %d: tree total %v != charged cost %v", i, sc.Tree.Total(), sc.Cost)
		}
		sum = sum.PlusChecked(sc.Cost)
	}
	if sum != res.Total {
		t.Errorf("steps + bootstraps = %v, schedule total %v", sum, res.Total)
	}
}

func TestRunScheduleExplicitBootstrap(t *testing.T) {
	ctx := schedCtx()
	s := Schedule{Steps: []Step{{OpMult, 2}, {OpBootstrap, 1}, {OpMult, 1}}}
	res, err := ctx.RunSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bootstraps != 1 {
		t.Errorf("bootstraps = %d", res.Bootstraps)
	}
	if res.FinalLimbs != ctx.Bootstrap().LimbsAfter-1 {
		t.Errorf("final limbs = %d", res.FinalLimbs)
	}
}

func TestRunScheduleMatchesDirectComposition(t *testing.T) {
	ctx := schedCtx()
	bd := ctx.Bootstrap()
	l := bd.LimbsAfter
	s := Schedule{Steps: []Step{{OpRotate, 2}, {OpMult, 1}, {OpAdd, 1}}}
	res, err := ctx.RunSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	want := ctx.Rotate(l).Times(2).Plus(ctx.Mult(l)).Plus(ctx.Add(l - 1))
	if res.Total != want {
		t.Errorf("interpreter cost %v != direct composition %v", res.Total, want)
	}
	if len(res.PerStep) != 4 {
		t.Errorf("per-step records = %d, want 4", len(res.PerStep))
	}
}

func TestRunScheduleRejectsBadSteps(t *testing.T) {
	ctx := schedCtx()
	if _, err := ctx.RunSchedule(Schedule{Steps: []Step{{OpMult, 0}}}); err == nil {
		t.Error("expected error for zero count")
	}
}
