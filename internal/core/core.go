// Package core holds the experiments of the paper's evaluation section
// that need more than one call into the simulator — Table 4, Figures 2–3,
// Table 5 — and the machine-readable report of all of them. Table 6 and
// Figure 6 are single calls into simfhe/design and simfhe/apps; their
// drivers import those packages directly.
package core

import (
	"repro/internal/simfhe"
	"repro/internal/simfhe/search"
)

// Table4Row is one primitive-operation row of Table 4.
type Table4Row struct {
	Name  string
	Cost  simfhe.Cost
	Paper struct{ GOps, GB, AI float64 }
}

// Table4 evaluates every primitive at the paper's Table 4 configuration
// (log N = 17, ℓ = 35, dnum = 3, minimal cache) alongside the published
// numbers.
func Table4() []Table4Row {
	ctx := simfhe.NewCtx(simfhe.Baseline(), simfhe.MB(2), simfhe.NoOpts())
	l := ctx.P.L
	mk := func(name string, c simfhe.Cost, gops, gb, ai float64) Table4Row {
		r := Table4Row{Name: name, Cost: c}
		r.Paper.GOps, r.Paper.GB, r.Paper.AI = gops, gb, ai
		return r
	}
	return []Table4Row{
		mk("PtAdd", ctx.PtAdd(l), 0.0046, 0.1101, 0.04),
		mk("Add", ctx.Add(l), 0.0092, 0.2202, 0.04),
		mk("PtMult", ctx.PtMult(l), 0.2747, 0.3282, 0.84),
		mk("Decomp", ctx.Decomp(l), 0.0092, 0.0734, 0.12),
		mk("ModUp", ctx.ModUpDigit(l, ctx.P.Alpha()), 0.2847, 0.1510, 1.88),
		mk("KSKInnerProd", ctx.KSKInnerProd(l, false), 0.0629, 0.4530, 0.13),
		mk("ModDown", ctx.ModDownPoly(l, ctx.P.Alpha(), false), 0.3000, 0.1877, 1.59),
		mk("Mult", ctx.Mult(l), 1.8333, 1.9293, 0.95),
		mk("Automorph", ctx.Automorph(l), 0, 0.1468, 0),
		mk("Rotate", ctx.Rotate(l), 1.5310, 1.5645, 0.98),
		mk("Conjugate", ctx.Conjugate(l), 1.5310, 1.5645, 0.98),
		mk("Bootstrap", ctx.Bootstrap().Total(), 149.546, 207.982, 0.72),
	}
}

// Figure2Point is one bar of Figure 2: a cumulative caching configuration
// and the bootstrap cost under it.
type Figure2Point struct {
	Name    string
	CacheMB int
	Cost    simfhe.Cost
}

// Figure2 evaluates the cumulative caching optimizations on one bootstrap
// at the baseline parameters, exactly as §3.1 stacks them.
func Figure2() []Figure2Point {
	p := simfhe.Baseline()
	configs := []struct {
		name string
		mb   int
		opts simfhe.OptSet
	}{
		{"Baseline", 2, simfhe.NoOpts()},
		{"O(1)-limb Cache", 2, simfhe.OptSet{CacheO1: true}},
		{"β-limb Cache", 6, simfhe.OptSet{CacheO1: true, CacheBeta: true}},
		{"α-limb Cache", 27, simfhe.OptSet{CacheO1: true, CacheBeta: true, CacheAlpha: true}},
		{"Limb Re-order", 27, simfhe.CachingOpts()},
	}
	out := make([]Figure2Point, 0, len(configs))
	for _, cfg := range configs {
		total := simfhe.NewCtx(p, simfhe.MB(cfg.mb), cfg.opts).Bootstrap().Total()
		out = append(out, Figure2Point{Name: cfg.name, CacheMB: cfg.mb, Cost: total})
	}
	return out
}

// Figure3Point is one bar of Figure 3.
type Figure3Point struct {
	Name string
	Cost simfhe.Cost
}

// Figure3 evaluates the cumulative algorithmic optimizations at the
// best-case parameters with all caching optimizations applied (§3.2).
func Figure3() []Figure3Point {
	p := simfhe.Optimal()
	cache := simfhe.MB(32)
	configs := []struct {
		name string
		opts func() simfhe.OptSet
	}{
		{"Baseline (caching)", simfhe.CachingOpts},
		{"ModDown Merge", func() simfhe.OptSet {
			o := simfhe.CachingOpts()
			o.ModDownMerge = true
			return o
		}},
		{"ModDown Hoisting", func() simfhe.OptSet {
			o := simfhe.CachingOpts()
			o.ModDownMerge, o.ModDownHoist = true, true
			return o
		}},
		{"Key Compression", simfhe.AllOpts},
	}
	out := make([]Figure3Point, 0, len(configs))
	for _, cfg := range configs {
		total := simfhe.NewCtx(p, cache, cfg.opts()).Bootstrap().Total()
		out = append(out, Figure3Point{Name: cfg.name, Cost: total})
	}
	return out
}

// Table5 returns (baseline, paper-optimal, our-search-optimal) for the
// optimal-parameter story of Table 5.
func Table5() (baseline, paperOptimal simfhe.Params, searchOptimal search.Candidate) {
	best, _ := search.Best(search.Space{}, search.ReferenceDesign(), simfhe.AllOpts())
	return simfhe.Baseline(), simfhe.Optimal(), best
}
