package search

import (
	"sync"
	"testing"

	"repro/internal/simfhe"
	"repro/internal/simfhe/design"
)

// sweep runs the search once for every test: it takes seconds and its
// result is fixed.
var sweep = sync.OnceValue(run)

func TestSearchFindsFeasiblePoints(t *testing.T) {
	cands := sweep()
	if len(cands) == 0 {
		t.Fatal("no candidates found")
	}
	// Sorted by descending throughput.
	for i := 1; i < len(cands); i++ {
		if cands[i].Throughput > cands[i-1].Throughput {
			t.Fatal("candidates not sorted by throughput")
		}
	}
	// Every candidate is secure and leaves usable levels.
	for _, c := range cands {
		if !c.Params.IsSecure() {
			t.Errorf("insecure candidate %v", c.Params)
		}
		if c.LogQ1 < c.Params.LogQ*minLimbsAfter {
			t.Errorf("candidate %v leaves too few levels (logQ1=%d)", c.Params, c.LogQ1)
		}
	}
}

// TestSearchBeatsBaselineParams: the whole point of Table 5 — the found
// optimum must out-throughput the GPU baseline parameter set on the same
// 32 MB system.
func TestSearchBeatsBaselineParams(t *testing.T) {
	best := sweep()[0]
	baseline := design.RunBootstrap(referenceDesign(), simfhe.Baseline(), simfhe.AllOpts())
	if best.Throughput <= baseline.Throughput {
		t.Errorf("search optimum (%.0f) does not beat baseline parameters (%.0f)",
			best.Throughput, baseline.Throughput)
	}
	// The paper's qualitative findings: the optimum prefers a longer
	// chain than the baseline (more levels per bootstrap) and a moderate
	// digit count whose O(α) working set fits the 32 MB budget.
	if best.Params.L <= simfhe.Baseline().L {
		t.Errorf("optimum L = %d not above baseline %d", best.Params.L, simfhe.Baseline().L)
	}
	alphaLimbs := 2*best.Params.Alpha() + 3
	if alphaLimbs > 32 {
		t.Errorf("optimum α = %d needs %d limbs of cache, beyond the 32 MB budget",
			best.Params.Alpha(), alphaLimbs)
	}
}

// TestPaperOptimalIsCompetitive: the paper's Table 5 "Ours" row must land
// within 2.5× of our search optimum on the same system (its dnum = 2
// working set exceeds 32 MB under this model's strict capacity filter,
// so it cannot use the O(α) optimization — see EXPERIMENTS.md).
func TestPaperOptimalIsCompetitive(t *testing.T) {
	best := sweep()[0]
	paper := design.RunBootstrap(referenceDesign(), simfhe.Optimal(), simfhe.AllOpts())
	if ratio := best.Throughput / paper.Throughput; ratio > 2.5 {
		t.Errorf("paper parameters %.1fx below our optimum; expected within 2.5x", ratio)
	}
}
