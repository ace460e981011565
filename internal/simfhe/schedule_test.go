package simfhe

import (
	"reflect"
	"strings"
	"testing"
)

func schedCtx() Ctx { return NewCtx(Optimal(), MB(32), AllOpts()) }

// seq is the sequential program ParseSchedule makes of "kind xN" lines.
func seq(steps ...Step) Schedule {
	var s Schedule
	for _, st := range steps {
		for range st.Count {
			s.Units = append(s.Units, Unit{{Kind: st.Kind, Count: 1}})
		}
	}
	return s
}

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
	want := seq(Step{Kind: OpMult, Count: 5}, Step{Kind: OpRotate, Count: 16}, Step{Kind: OpPtMult, Count: 4},
		Step{Kind: OpAdd, Count: 6}, Step{Kind: OpConjugate, Count: 1}, Step{Kind: OpBootstrap, Count: 1})
	if !reflect.DeepEqual(s.Units, want.Units) {
		t.Errorf("units = %v, want one single-op unit per instance: %v", s.Units, want.Units)
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
	res, err := ctx.RunSchedule(seq(Step{Kind: OpMult, Count: 3}))
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
	res, _ = ctx.RunSchedule(seq(Step{Kind: OpRotate, Count: 10}))
	if res.FinalLimbs != fresh {
		t.Errorf("rotations changed the level: %d", res.FinalLimbs)
	}
}

func TestRunScheduleAutoBootstrap(t *testing.T) {
	ctx := schedCtx()
	bd := ctx.Bootstrap()
	fresh := bd.LimbsAfter

	// More multiplications than one budget: a bootstrap must appear.
	res, err := ctx.RunSchedule(seq(Step{Kind: OpMult, Count: fresh + 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", res.Bootstraps)
	}
	// The bootstrap's cost is included.
	noBootRes, _ := ctx.RunSchedule(seq(Step{Kind: OpMult, Count: fresh - 1}))
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
		if sc.Tree.Total().Times(sc.Step.Count) != sc.Cost {
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
	res, err := ctx.RunSchedule(seq(Step{Kind: OpMult, Count: 2}, Step{Kind: OpBootstrap, Count: 1}, Step{Kind: OpMult, Count: 1}))
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
	res, err := ctx.RunSchedule(seq(Step{Kind: OpRotate, Count: 2}, Step{Kind: OpMult, Count: 1}, Step{Kind: OpAdd, Count: 1}))
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
	fresh := ctx.Bootstrap().LimbsAfter
	for name, u := range map[string]Unit{
		"zero count":        {{Kind: OpMult}},
		"negative depth":    {{Kind: OpRotate, Count: 1, Depth: -1}},
		"bootstrap in unit": {{Kind: OpBootstrap, Count: 1}, {Kind: OpAdd, Count: 1}},
		"deeper than fresh": {{Kind: OpMult, Count: 1, Depth: fresh - 1}},
	} {
		if _, err := ctx.RunSchedule(Schedule{Units: []Unit{u}}); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// The deepest unit a fresh budget holds leaves one limb.
	res, err := ctx.RunSchedule(Schedule{Units: []Unit{{{Kind: OpMult, Count: 1, Depth: fresh - 2}}}})
	if err != nil || res.FinalLimbs != 1 || res.Bootstraps != 0 {
		t.Errorf("a %d-deep unit: %+v, %v; want one limb left and no bootstrap", fresh-1, res, err)
	}
}

// TestRunScheduleUnitLevels: every batch of a unit is charged at the
// unit's entry level minus its Depth, the unit then drops its depth, and
// a unit that would leave no limb is preceded by one bootstrap, never
// split by it.
func TestRunScheduleUnitLevels(t *testing.T) {
	ctx := schedCtx()
	bd := ctx.Bootstrap()
	fresh := bd.LimbsAfter
	u := Unit{
		{Kind: OpMult, Count: 1},
		{Kind: OpRotate, Count: 8, Depth: 1},
		{Kind: OpPtMult, Count: 2, Depth: 1},
		{Kind: OpAdd, Count: 3, Depth: 2},
	}
	if u.Depth() != 2 {
		t.Fatalf("unit depth %d, want 2", u.Depth())
	}
	units := (fresh-1)/2 + 1 // one more than a fresh budget holds
	s := Schedule{}
	for range units {
		s.Units = append(s.Units, u)
	}
	res, err := ctx.RunSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", res.Bootstraps)
	}
	if want := fresh - 2; res.FinalLimbs != want {
		t.Errorf("final limbs %d, want %d", res.FinalLimbs, want)
	}
	unitCost := func(l int) Cost {
		return ctx.Mult(l).Plus(ctx.Rotate(l - 1).Times(8)).Plus(ctx.PtMult(l - 1).Times(2)).Plus(ctx.Add(l - 2).Times(3))
	}
	var want Cost
	for i := range units - 1 {
		want = want.Plus(unitCost(fresh - 2*i))
	}
	want = want.Plus(bd.Total()).Plus(unitCost(fresh))
	if res.Total != want {
		t.Errorf("interpreter cost %v != per-batch composition %v", res.Total, want)
	}
	for i, sc := range res.PerStep {
		if want := i == 4*(units-1); sc.AutoBootstrap != want {
			t.Errorf("batch %d: AutoBootstrap = %v, want %v", i, sc.AutoBootstrap, want)
		}
	}
}
