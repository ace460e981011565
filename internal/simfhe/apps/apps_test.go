package apps

import (
	"maps"
	"testing"

	"repro/internal/simfhe"
)

// wantBootstraps is the cadence a plan's unit depth and the parameters'
// bootstrap plan give: the fresh budget of LevelAfter+1 limbs runs
// ⌊LevelAfter/depth⌋ units (one limb must stay), the first budget is
// granted up front, and each later budget costs one bootstrap.
func wantBootstraps(s simfhe.Schedule, p simfhe.Params) (perBoot, boots int) {
	perBoot = p.BootPlan().LevelAfter / s.Units[0].Depth()
	return perBoot, (len(s.Units)+perBoot-1)/perBoot - 1
}

// figure6Configs are Figure 6's two configurations: +MAD and the modeled
// original.
var figure6Configs = []struct {
	p    simfhe.Params
	opts simfhe.OptSet
}{{simfhe.Optimal(), simfhe.AllOpts()}, {simfhe.Baseline(), simfhe.CachingOpts()}}

// runPlan prices s at one of Figure 6's two configurations.
func runPlan(t *testing.T, s simfhe.Schedule, p simfhe.Params, opts simfhe.OptSet) simfhe.ScheduleResult {
	t.Helper()
	res, err := simfhe.NewCtx(p, simfhe.MB(32), opts).RunSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHELRBootstrapCadence verifies the paper's statement (§4.3): with
// the optimal parameter set, HELR bootstraps after every three training
// iterations — 9 bootstraps over 30 iterations, at the modeled original's
// baseline parameters too. The cadence follows from the plan's derived
// unit depth and the bootstrap plan's output level.
func TestHELRBootstrapCadence(t *testing.T) {
	s := HELR()
	if perBoot, _ := wantBootstraps(s, simfhe.Optimal()); perBoot != 3 {
		t.Fatalf("iterations per bootstrap = %d, paper says 3", perBoot)
	}
	for _, cfg := range figure6Configs {
		_, want := wantBootstraps(s, cfg.p)
		if got := runPlan(t, s, cfg.p, cfg.opts).Bootstraps; got != want || got != 9 {
			t.Errorf("%v: bootstraps = %d, the plan's cadence gives %d (Figure 6: 9)", cfg.p, got, want)
		}
	}
}

// TestResNet20BootstrapCadence: a layer is deeper than half a fresh
// budget, so every layer after the first bootstraps — 19 over 20 layers
// at both Figure 6 configurations.
func TestResNet20BootstrapCadence(t *testing.T) {
	s := ResNet20()
	for _, cfg := range figure6Configs {
		perBoot, want := wantBootstraps(s, cfg.p)
		if perBoot != 1 {
			t.Errorf("%v: %d layers per bootstrap, want 1", cfg.p, perBoot)
		}
		if got := runPlan(t, s, cfg.p, cfg.opts).Bootstraps; got != want || got != len(s.Units)-1 {
			t.Errorf("%v: bootstraps = %d, the plan's cadence gives %d", cfg.p, got, want)
		}
	}
}

// TestFigure6GPUShape: the headline Figure 6(a) claims — MAD on the GPU
// design cuts LR training substantially, and more cache helps (3.5× at
// 6 MB, up to 17× at 32 MB against the published time). Against the
// modeled original the model reads 1.9×: it prices the bootstrap plan,
// whose DFTs cost the unhoisted original less than the paper's schedule.
func TestFigure6GPUShape(t *testing.T) {
	lr, err := Figure6LR()
	if err != nil {
		t.Fatal(err)
	}
	pts := lr["GPU [20]"]
	if len(pts) != 4 { // published, modeled, +MAD-6, +MAD-32
		t.Fatalf("got %d points, want 4", len(pts))
	}
	published, modeled, mad6, mad32 := pts[0], pts[1], pts[2], pts[3]
	if !published.Published || modeled.Published {
		t.Error("point labeling broken")
	}
	if mad32.RuntimeS > mad6.RuntimeS {
		t.Errorf("more cache slowed MAD down: 6MB %.2fs vs 32MB %.2fs", mad6.RuntimeS, mad32.RuntimeS)
	}
	speedup := modeled.RuntimeS / mad32.RuntimeS
	if speedup < 1.8 {
		t.Errorf("GPU+MAD-32 speedup %.1fx over modeled original; paper reports 17x over published", speedup)
	}
}

// TestFigure6ARKShape: Figure 6(e) — applying MAD (with its small cache)
// to ARK makes LR training slower than the original, because ARK was
// already balanced with its 512 MB memory.
func TestFigure6ARKShape(t *testing.T) {
	lr, err := Figure6LR()
	if err != nil {
		t.Fatal(err)
	}
	pts := lr["ARK [24]"]
	published := pts[0]
	var mad32 Figure6Point
	for _, p := range pts {
		if p.Label == "ARK [24]@32MB+MAD" {
			mad32 = p
		}
	}
	if mad32.Label == "" {
		t.Fatal("missing ARK 32MB point")
	}
	if mad32.RuntimeS <= published.RuntimeS {
		t.Errorf("ARK+MAD-32 (%.3fs) should be slower than published ARK (%.3fs)", mad32.RuntimeS, published.RuntimeS)
	}
}

// TestWorkloadDefinitions pins each plan's op mix per unit: the counts
// the published algorithms give, now placed at their levels.
func TestWorkloadDefinitions(t *testing.T) {
	for _, c := range []struct {
		s     simfhe.Schedule
		units int
		want  map[simfhe.OpKind]int
	}{
		{HELR(), 30, map[simfhe.OpKind]int{simfhe.OpMult: 5, simfhe.OpRotate: 16, simfhe.OpPtMult: 4, simfhe.OpAdd: 6}},
		{ResNet20(), 20, map[simfhe.OpKind]int{simfhe.OpMult: 10, simfhe.OpRotate: 34, simfhe.OpPtMult: 34, simfhe.OpAdd: 40}},
	} {
		if len(c.s.Units) != c.units {
			t.Errorf("%s: %d units, want %d", c.s.Name, len(c.s.Units), c.units)
		}
		got := map[simfhe.OpKind]int{}
		for _, st := range c.s.Units[0] {
			got[st.Kind] += st.Count
		}
		if !maps.Equal(got, c.want) {
			t.Errorf("%s: ops per unit %v, want %v", c.s.Name, got, c.want)
		}
	}
}

func TestFigure6Completeness(t *testing.T) {
	lr, err := Figure6LR()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"GPU [20]", "F1 [30]", "CraterLake [31]", "BTS [25]", "ARK [24]"} {
		if len(lr[name]) < 3 {
			t.Errorf("LR sub-figure %s has %d points", name, len(lr[name]))
		}
	}
	rn, err := Figure6ResNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CraterLake [31]", "BTS [25]", "ARK [24]"} {
		if len(rn[name]) < 3 {
			t.Errorf("ResNet sub-figure %s has %d points", name, len(rn[name]))
		}
	}
	if _, ok := rn["GPU [20]"]; ok {
		t.Error("the paper has no GPU ResNet sub-figure")
	}
}
