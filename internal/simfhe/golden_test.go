package simfhe

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cost_golden.txt from the current model")

const goldenPath = "testdata/cost_golden.txt"

// TestCostGolden pins every field of every composite cost over
// ctxMatrix() × ℓ ∈ {2, L/2, L}, plus the four bootstrap phases and the
// level schedule. The paper-tolerance tests accept a few percent of drift;
// this one accepts none, so a refactor of the model is checked to move no
// number. Regenerate deliberately with `go test ./internal/simfhe -run
// TestCostGolden -update` when a formula is meant to change.
func TestCostGolden(t *testing.T) {
	var b strings.Builder
	row := func(name string, c Cost) {
		fmt.Fprintf(&b, "  %-14s mulmod=%d addmod=%d ntt=%d ctread=%d ctwrite=%d keyread=%d ptread=%d switches=%d\n",
			name, c.MulMod, c.AddMod, c.NTT, c.CtRead, c.CtWrite, c.KeyRead, c.PtRead, c.OrientationSwitches)
	}
	for i, ctx := range ctxMatrix() {
		fmt.Fprintf(&b, "ctx %d: %v cache=%d opts=%+v\n", i, ctx.P, ctx.Cache.Bytes, ctx.Opts)
		for _, l := range []int{2, ctx.P.L / 2, ctx.P.L} {
			fmt.Fprintf(&b, " l=%d\n", l)
			row("KeySwitch", ctx.KeySwitch(l))
			row("MulRelin", ctx.MulRelin(l))
			row("Mult", ctx.Mult(l))
			row("PtMult", ctx.PtMult(l))
			row("Rotate", ctx.Rotate(l))
			row("Hoisted4", ctx.HoistedRotations(l, 4))
		}
		bd := ctx.Bootstrap()
		fmt.Fprintf(&b, " bootstrap limbs_after=%d levels_consumed=%d logq1=%d\n",
			bd.LimbsAfter, bd.LevelsConsumed, bd.LogQ1)
		row("ModRaise", bd.ModRaise)
		row("CoeffToSlot", bd.CoeffToSlot)
		row("EvalMod", bd.EvalMod)
		row("SlotToCoeff", bd.SlotToCoeff)
	}
	got := b.String()

	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(gotLines[i], "ctx ") {
			section = gotLines[i]
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d under %q:\n got  %s\n want %s", goldenPath, i+1, section, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, model produced %d", goldenPath, len(wantLines), len(gotLines))
}
