package design

import (
	"math"
	"testing"

	"repro/internal/simfhe"
)

func within(got, want, tol float64) bool {
	return math.Abs(got/want-1) <= tol
}

// TestPublishedThroughputs checks Eq. 3 against the throughput column of
// Table 6 for every original design.
func TestPublishedThroughputs(t *testing.T) {
	want := map[string]float64{
		"GPU [20]":        409,
		"F1 [30]":         1.5,
		"BTS [25]":        2667,
		"ARK [24]":        6896,
		"CraterLake [31]": 10465,
	}
	for _, d := range All() {
		got := d.PublishedThroughput()
		if !within(got, want[d.Name], 0.05) {
			t.Errorf("%s: throughput %.1f, Table 6 says %.1f", d.Name, got, want[d.Name])
		}
	}
}

// TestTable6Shape checks the comparison's qualitative outcomes: MAD beats
// the memory-bound designs (GPU, F1) and loses to the big-cache ASICs
// (BTS, ARK, CraterLake), as §4.2 reports.
func TestTable6Shape(t *testing.T) {
	rows := Table6()
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		switch r.Original.Name {
		case "GPU [20]", "F1 [30]":
			if r.Normalized >= 1 {
				t.Errorf("%s: normalized %.3f, paper has MAD winning (<1)", r.Original.Name, r.Normalized)
			}
		case "BTS [25]", "ARK [24]", "CraterLake [31]":
			if r.Normalized <= 1 {
				t.Errorf("%s: normalized %.3f, paper has the original winning (>1)", r.Original.Name, r.Normalized)
			}
		}
		if r.MAD.LogQ1 <= 0 || r.MAD.RuntimeMs <= 0 {
			t.Errorf("%s: degenerate MAD result %+v", r.Original.Name, r.MAD)
		}
	}
}

// TestTable6FactorsRoughly checks the normalized-throughput column within
// a generous factor band: the reconstruction should land within ~3× of
// each Table 6 value.
func TestTable6FactorsRoughly(t *testing.T) {
	paper := map[string]float64{
		"GPU [20]":        0.1361,
		"F1 [30]":         0.0005,
		"BTS [25]":        1.7178,
		"ARK [24]":        2.1326,
		"CraterLake [31]": 4.6248,
	}
	for _, r := range Table6() {
		want := paper[r.Original.Name]
		ratio := r.Normalized / want
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: normalized %.4f vs paper %.4f (off by %.1fx)",
				r.Original.Name, r.Normalized, want, ratio)
		}
	}
}

func TestRooflineModel(t *testing.T) {
	d := Design{Name: "test", Multipliers: 1000, BandwidthGBps: 100, FreqGHz: 1, OnChipMB: 32}
	// Pure compute: 10^12 muls on 1000 multipliers at 1 GHz = 1 s.
	c := simfhe.Cost{MulMod: 1e12}
	if got := d.ComputeSeconds(c); !within(got, 1.0, 1e-9) {
		t.Errorf("compute time %v, want 1s", got)
	}
	// Adds count quarter-weight.
	c2 := simfhe.Cost{AddMod: 4e12}
	if got := d.ComputeSeconds(c2); !within(got, 1.0, 1e-9) {
		t.Errorf("add-only compute time %v, want 1s", got)
	}
	// Pure memory: 10^11 bytes at 100 GB/s = 1 s.
	m := simfhe.Cost{CtRead: 1e11}
	if got := d.MemorySeconds(m); !within(got, 1.0, 1e-9) {
		t.Errorf("memory time %v, want 1s", got)
	}
	// Roofline takes the max.
	both := simfhe.Cost{MulMod: 1e12, CtRead: 5e11}
	if got := d.RuntimeSeconds(both); !within(got, 5.0, 1e-9) {
		t.Errorf("roofline %v, want 5s (memory-bound)", got)
	}
	if d.ComputeBound(both) {
		t.Error("should be memory-bound")
	}
	if !d.ComputeBound(c) {
		t.Error("pure compute should be compute-bound")
	}
}

func TestThroughputUnits(t *testing.T) {
	// GPU row: 2^16 slots, logQ1 1080, 19 bits, 328.7 ms → 409.
	got := Throughput(1<<16, 1080, 19, 0.3287)
	if !within(got, 409, 0.01) {
		t.Errorf("throughput %.1f, want 409", got)
	}
}

func TestWithMemory(t *testing.T) {
	d := GPU.WithMemory(32)
	if d.OnChipMB != 32 {
		t.Errorf("OnChipMB = %d", d.OnChipMB)
	}
	if GPU.OnChipMB != 6 {
		t.Error("WithMemory mutated the original")
	}
}

// TestMADRuntimeInRange sanity-checks the absolute MAD bootstrap runtime
// per design against Table 6 within a generous band (the model's DRAM is
// heavier than the paper's; see EXPERIMENTS.md).
func TestMADRuntimeInRange(t *testing.T) {
	paper := map[string]float64{
		"GPU [20]":        39.35,
		"F1 [30]":         40.6,
		"BTS [25]":        76.2,
		"ARK [24]":        36.58,
		"CraterLake [31]": 52.2,
	}
	for _, d := range All() {
		r := RunBootstrap(d.WithMemory(32), simfhe.Optimal(), simfhe.AllOpts())
		want := paper[d.Name]
		if r.RuntimeMs < want/4 || r.RuntimeMs > want*4 {
			t.Errorf("%s: MAD bootstrap %.1f ms, paper %.1f ms (outside 4x band)", d.Name, r.RuntimeMs, want)
		}
	}
}

// TestZeroCostEdgeCases: a zero cost takes no time on any design, so a
// node that owns no work of its own (every composite node of a cost
// tree) adds nothing to a timeline the designs price.
func TestZeroCostEdgeCases(t *testing.T) {
	for _, d := range All() {
		if got := d.RuntimeSeconds(simfhe.Cost{}); got != 0 {
			t.Errorf("%s: zero cost runs %v s, want 0", d.Name, got)
		}
	}
}

// TestTable4AllMemoryBound: §2.3's conclusion on Table 6's machine —
// every Table 4 primitive and the baseline bootstrap run memory-bound on
// BTS with 32 MB, with the multipliers busy under a third of the time.
func TestTable4AllMemoryBound(t *testing.T) {
	d := BTS.WithMemory(32)
	ctx := simfhe.NewCtx(simfhe.Baseline(), simfhe.MB(2), simfhe.NoOpts())
	l := ctx.P.L
	for name, c := range map[string]simfhe.Cost{
		"Add": ctx.Add(l), "PtMult": ctx.PtMult(l), "Mult": ctx.Mult(l),
		"Rotate": ctx.Rotate(l), "Bootstrap": ctx.Bootstrap().Total(),
	} {
		if d.ComputeBound(c) {
			t.Errorf("%s: compute-bound at AI %.2f", name, c.AI())
		}
		if busy := d.ComputeSeconds(c) / d.RuntimeSeconds(c); busy > 0.3 || math.IsNaN(busy) {
			t.Errorf("%s: multipliers busy %.2f of the runtime, want a memory-bound share", name, busy)
		}
	}
}

// TestMADRaisesUtilization: the MAD stack raises bootstrapping's
// arithmetic intensity over the baseline's, and with it the share of
// the runtime the multipliers are busy.
func TestMADRaisesUtilization(t *testing.T) {
	d := BTS.WithMemory(32)
	before := RunBootstrap(d, simfhe.Baseline(), simfhe.NoOpts()).Cost
	after := RunBootstrap(d, simfhe.Optimal(), simfhe.AllOpts()).Cost
	if after.AI() <= before.AI() {
		t.Errorf("MAD did not raise the bootstrap's AI: %.3f -> %.3f", before.AI(), after.AI())
	}
	ub := d.ComputeSeconds(before) / d.RuntimeSeconds(before)
	ua := d.ComputeSeconds(after) / d.RuntimeSeconds(after)
	if ua <= ub {
		t.Errorf("MAD did not raise utilization: %.3f -> %.3f", ub, ua)
	}
}
