package main

// The experiments of the paper's evaluation section. Each computes its
// rows once (table4Rows, figure2Rows, …); its text table and the `json`
// report both render those rows.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"repro/internal/fherr"
	"repro/internal/simfhe"
	"repro/internal/simfhe/apps"
	"repro/internal/simfhe/design"
	"repro/internal/simfhe/search"
)

// jsonCost is a simulator cost that serializes with its derived totals;
// the text tables use the embedded simfhe.Cost.
type jsonCost struct{ simfhe.Cost }

func (c jsonCost) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		MulMod              uint64  `json:"mulmod"`
		AddMod              uint64  `json:"addmod"`
		CtReadBytes         uint64  `json:"ct_read_bytes"`
		CtWriteBytes        uint64  `json:"ct_write_bytes"`
		KeyReadBytes        uint64  `json:"key_read_bytes"`
		PtReadBytes         uint64  `json:"pt_read_bytes"`
		OrientationSwitches uint64  `json:"orientation_switches"`
		GOps                float64 `json:"gops"`
		GB                  float64 `json:"gb"`
		AI                  float64 `json:"ai"`
	}{
		c.MulMod, c.AddMod, c.CtRead, c.CtWrite, c.KeyRead, c.PtRead,
		c.OrientationSwitches, c.GOps(), c.GB(), c.AI(),
	})
}

// jsonTree serializes a cost attribution tree node by node (name,
// inclusive cost, children), so plotting scripts can build flame graphs
// of the DRAM/ops breakdown directly from the report.
type jsonTree struct{ *simfhe.CostTree }

func (t jsonTree) MarshalJSON() ([]byte, error) {
	children := make([]jsonTree, len(t.Children))
	for i, ch := range t.Children {
		children[i] = jsonTree{ch}
	}
	return json.Marshal(struct {
		Name     string     `json:"name"`
		Cost     jsonCost   `json:"cost"`
		Children []jsonTree `json:"children,omitempty"`
	}{t.Name, jsonCost{t.Total()}, children})
}

// table4Row is one primitive-operation row of Table 4 beside the
// published numbers.
type table4Row struct {
	Name  string   `json:"name"`
	Cost  jsonCost `json:"cost"`
	Paper struct {
		GOps float64 `json:"gops"`
		GB   float64 `json:"gb"`
		AI   float64 `json:"ai"`
	} `json:"paper"`
}

// table4Rows evaluates every primitive at the paper's Table 4
// configuration (log N = 17, ℓ = 35, dnum = 3, minimal cache).
func table4Rows() []table4Row {
	ctx := simfhe.NewCtx(simfhe.Baseline(), simfhe.MB(2), simfhe.NoOpts())
	l := ctx.P.L
	mk := func(name string, c simfhe.Cost, gops, gb, ai float64) table4Row {
		r := table4Row{Name: name, Cost: jsonCost{c}}
		r.Paper.GOps, r.Paper.GB, r.Paper.AI = gops, gb, ai
		return r
	}
	return []table4Row{
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

func table4(_ []string, w io.Writer) error {
	fmt.Fprintln(w, "== Table 4: ops (Gops), DRAM (GB), arithmetic intensity ==")
	fmt.Fprintln(w, "   logN=17, l=35, dnum=3, minimal (1-2 limb) cache")
	fmt.Fprintf(w, "%-14s %10s %10s %8s   %10s %10s %8s\n", "Operation", "Gops", "GB", "AI", "paper:Gops", "paper:GB", "AI")
	for _, r := range table4Rows() {
		fmt.Fprintf(w, "%-14s %10.4f %10.4f %8.2f   %10.4f %10.4f %8.2f\n",
			r.Name, r.Cost.GOps(), r.Cost.GB(), r.Cost.AI(), r.Paper.GOps, r.Paper.GB, r.Paper.AI)
	}
	fmt.Fprintln(w)
	return nil
}

// figure2Row is one bar of Figure 2: a cumulative caching configuration
// and the bootstrap cost under it.
type figure2Row struct {
	Name    string   `json:"name"`
	CacheMB int      `json:"cache_mb"`
	Cost    jsonCost `json:"cost"`
}

// figure2Rows evaluates the cumulative caching optimizations on one
// bootstrap at the baseline parameters, exactly as §3.1 stacks them.
func figure2Rows() []figure2Row {
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
	rows := make([]figure2Row, 0, len(configs))
	for _, cfg := range configs {
		total := simfhe.NewCtx(simfhe.Baseline(), simfhe.MB(cfg.mb), cfg.opts).Bootstrap().Total()
		rows = append(rows, figure2Row{cfg.name, cfg.mb, jsonCost{total}})
	}
	return rows
}

func fig2(_ []string, w io.Writer) error {
	fmt.Fprintln(w, "== Figure 2: cumulative caching optimizations, one bootstrap, baseline params ==")
	rows := figure2Rows()
	base := rows[0].Cost
	fmt.Fprintf(w, "%-18s %6s %10s %10s %9s %8s %8s\n", "Configuration", "cache", "DRAM (GB)", "vs base", "ct-reads", "ct-wr", "AI")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %4dMB %10.2f %+9.1f%% %8.1fG %7.1fG %8.2f  %s\n",
			r.Name, r.CacheMB, r.Cost.GB(),
			100*(float64(r.Cost.Bytes())/float64(base.Bytes())-1),
			float64(r.Cost.CtRead)/1e9, float64(r.Cost.CtWrite)/1e9, r.Cost.AI(),
			bar(float64(r.Cost.Bytes()), float64(base.Bytes()), 32))
	}
	fmt.Fprintln(w, "   paper cumulative DRAM: -15%, -22%, -44%, -52%; AI 0.72 -> 1.25")
	fmt.Fprintln(w)
	return nil
}

// figure3Row is one bar of Figure 3.
type figure3Row struct {
	Name string   `json:"name"`
	Cost jsonCost `json:"cost"`
}

// figure3Rows evaluates the cumulative algorithmic optimizations at the
// best-case parameters with every caching optimization applied (§3.2).
func figure3Rows() []figure3Row {
	merge := simfhe.CachingOpts()
	merge.ModDownMerge = true
	hoist := merge
	hoist.ModDownHoist = true
	configs := []struct {
		name string
		opts simfhe.OptSet
	}{
		{"Baseline (caching)", simfhe.CachingOpts()},
		{"ModDown Merge", merge},
		{"ModDown Hoisting", hoist},
		{"Key Compression", simfhe.AllOpts()},
	}
	rows := make([]figure3Row, 0, len(configs))
	for _, cfg := range configs {
		total := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(32), cfg.opts).Bootstrap().Total()
		rows = append(rows, figure3Row{cfg.name, jsonCost{total}})
	}
	return rows
}

func fig3(_ []string, w io.Writer) error {
	fmt.Fprintln(w, "== Figure 3: cumulative algorithmic optimizations, optimal params + caching ==")
	rows := figure3Rows()
	base := rows[0].Cost
	fmt.Fprintf(w, "%-20s %10s %10s %9s %9s %8s\n", "Configuration", "Gops", "DRAM (GB)", "ops vs b", "key reads", "AI")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %10.2f %10.2f %+8.1f%% %8.1fG %8.2f  %s\n",
			r.Name, r.Cost.GOps(), r.Cost.GB(),
			100*(float64(r.Cost.Ops())/float64(base.Ops())-1),
			float64(r.Cost.KeyRead)/1e9, r.Cost.AI(),
			bar(float64(r.Cost.Bytes()), float64(base.Bytes()), 32))
	}
	fmt.Fprintln(w, "   paper: merge ops -6%; hoist ops -34%, ct DRAM -19%, keys +25%; keycomp keys -50%")
	fmt.Fprintln(w)
	return nil
}

// table5Result is Table 5's parameter story: the baseline, the paper's
// optimum, and this model's search optimum on the reference design.
type table5Result struct {
	Baseline     simfhe.Params `json:"baseline"`
	PaperOptimal simfhe.Params `json:"paper_optimal"`
	SearchBest   struct {
		Params     simfhe.Params `json:"params"`
		Throughput float64       `json:"throughput"`
		RuntimeMs  float64       `json:"runtime_ms"`
		LogQ1      int           `json:"logq1"`
	} `json:"search_best"`
}

// table5Rows runs the search once per process: it takes seconds and its
// result is fixed, and `table5`, `json` and the tests all render it.
var table5Rows = sync.OnceValue(func() table5Result {
	r := table5Result{Baseline: simfhe.Baseline(), PaperOptimal: simfhe.Optimal()}
	best := search.Best()
	r.SearchBest.Params, r.SearchBest.Throughput = best.Params, best.Throughput
	r.SearchBest.RuntimeMs, r.SearchBest.LogQ1 = best.RuntimeMs, best.LogQ1
	return r
})

func table5(_ []string, w io.Writer) error {
	fmt.Fprintln(w, "== Table 5: bootstrapping parameters (n = 2^16 slots) ==")
	r := table5Rows()
	base, opt, best := r.Baseline, r.PaperOptimal, r.SearchBest
	fmt.Fprintf(w, "%-22s q=%2d L=%2d dnum=%d fftIter=%d\n", "Baseline [20]:", base.LogQ, base.L, base.Dnum, base.FFTIter)
	fmt.Fprintf(w, "%-22s q=%2d L=%2d dnum=%d fftIter=%d\n", "Paper optimal:", opt.LogQ, opt.L, opt.Dnum, opt.FFTIter)
	fmt.Fprintf(w, "%-22s q=%2d L=%2d dnum=%d fftIter=%d  (throughput %.0f, logQ1 %d, %.1f ms on the 32 MB reference system)\n",
		"Our search optimum:", best.Params.LogQ, best.Params.L, best.Params.Dnum, best.Params.FFTIter,
		best.Throughput, best.LogQ1, best.RuntimeMs)
	fmt.Fprintln(w, "   note: the paper's dnum=2 needs a 45 MB O(α) working set; under this model's strict")
	fmt.Fprintln(w, "   32 MB capacity filter the search prefers dnum=3 (see EXPERIMENTS.md)")
	fmt.Fprintln(w)
	return nil
}

// table6Row is one design of Table 6: its published throughput against
// the same design with MAD at 32 MB.
type table6Row struct {
	Design       string  `json:"design"`
	OrigTput     float64 `json:"orig_throughput"`
	MADTput      float64 `json:"mad_throughput"`
	MADRuntimeMs float64 `json:"mad_runtime_ms"`
	Normalized   float64 `json:"normalized"`
	LogQ1        int     `json:"-"`
	ComputeBound bool    `json:"-"`
}

func table6Rows() []table6Row {
	var rows []table6Row
	for _, r := range design.Table6() {
		rows = append(rows, table6Row{r.Original.Name, r.OrigTput, r.MAD.Throughput,
			r.MAD.RuntimeMs, r.Normalized, r.MAD.LogQ1, r.MAD.ComputeBound})
	}
	return rows
}

func table6(_ []string, w io.Writer) error {
	fmt.Fprintln(w, "== Table 6: bootstrapping throughput, original designs vs +MAD at 32 MB ==")
	fmt.Fprintf(w, "%-18s %10s | %9s %10s %7s %10s\n", "Design", "orig tput", "MAD ms", "MAD tput", "logQ1", "normalized")
	for _, r := range table6Rows() {
		bound := "mem-bound"
		if r.ComputeBound {
			bound = "compute-bound"
		}
		fmt.Fprintf(w, "%-18s %10.1f | %9.2f %10.1f %7d %10.4f  (%s)\n",
			r.Design, r.OrigTput, r.MADRuntimeMs, r.MADTput, r.LogQ1, r.Normalized, bound)
	}
	fmt.Fprintln(w, "   paper normalized: GPU 0.1361, F1 0.0005, BTS 1.7178, ARK 2.1326, CL 4.6248")
	fmt.Fprintln(w)
	return nil
}

func fig6(args []string, w io.Writer) error {
	fs := newFlagSet("fig6")
	app := fs.String("app", "lr", "lr or resnet")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// "lr": the LR-training sub-figures (a)–(e); "resnet": ResNet-20 (f)–(h).
	build, title := apps.Figure6LR, "== Figure 6 (a-e): logistic-regression training time =="
	if *app == "resnet" {
		build, title = apps.Figure6ResNet, "== Figure 6 (f-h): ResNet-20 inference time =="
	} else if *app != "lr" {
		return fherr.Errorf(fherr.ErrUsage, "unknown -app: %s", *app)
	}
	rows, err := build()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	names := slices.Sorted(maps.Keys(rows))
	for _, name := range names {
		fmt.Fprintf(w, "%s:\n", name)
		var modeled float64
		for _, pt := range rows[name] {
			note := ""
			if pt.Published {
				note = "  [published]"
			} else if modeled == 0 {
				modeled = pt.RuntimeS
			} else if modeled > 0 {
				note = fmt.Sprintf("  [%.1fx vs modeled original]", modeled/pt.RuntimeS)
			}
			fmt.Fprintf(w, "   %-34s %9.3f s%s\n", pt.Label, pt.RuntimeS, note)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// report is `simfhe json`: every experiment's rows, plus the attribution
// trees of the headline operations under the fully-optimized
// configuration.
type report struct {
	Table4        []table4Row                    `json:"table4"`
	Figure2       []figure2Row                   `json:"figure2"`
	Figure3       []figure3Row                   `json:"figure3"`
	Table5        table5Result                   `json:"table5"`
	Table6        []table6Row                    `json:"table6"`
	Figure6LR     map[string][]apps.Figure6Point `json:"figure6_lr"`
	Figure6ResNet map[string][]apps.Figure6Point `json:"figure6_resnet"`
	Attribution   struct {
		Mult      jsonTree `json:"mult"`
		Bootstrap jsonTree `json:"bootstrap"`
	} `json:"attribution"`
}

func buildReport() (report, error) {
	r := report{
		Table4:  table4Rows(),
		Figure2: figure2Rows(),
		Figure3: figure3Rows(),
		Table5:  table5Rows(),
		Table6:  table6Rows(),
	}
	var err error
	if r.Figure6LR, err = apps.Figure6LR(); err != nil {
		return r, err
	}
	if r.Figure6ResNet, err = apps.Figure6ResNet(); err != nil {
		return r, err
	}
	ctx := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(32), simfhe.AllOpts())
	r.Attribution.Mult = jsonTree{ctx.MultTree(ctx.P.L)}
	r.Attribution.Bootstrap = jsonTree{ctx.BootstrapTree()}
	return r, nil
}

func writeJSON(_ []string, w io.Writer) error {
	r, err := buildReport()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func costTradeoff(_ []string, w io.Writer) error {
	fmt.Fprintln(w, "== §4.4: performance vs area/cost (BTS design + MAD, sweeping on-chip memory) ==")
	a := design.DefaultAreaModel()
	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %10s %10s\n", "MB", "boot ms", "tput", "die mm2", "tput/mm2", "mem frac", "rel cost")
	for _, pt := range design.Tradeoff(a, design.BTS, []int{32, 64, 128, 256, 512}, simfhe.Optimal()) {
		fmt.Fprintf(w, "%6d %10.1f %10.0f %10.0f %10.2f %9.0f%% %10.2f\n",
			pt.Design.OnChipMB, pt.RuntimeMs, pt.Throughput, pt.AreaMm2,
			pt.TputPerMm2, 100*pt.MemoryFrac, pt.CostVsDefault)
	}
	fmt.Fprintln(w, "   paper: a 16x memory reduction (512 -> 32 MB) proportionally reduces the cost of the solution")
	fmt.Fprintln(w)
	return nil
}

// bar renders a proportional text bar (the figures' visual).
func bar(value, reference float64, width int) string {
	if reference <= 0 {
		return ""
	}
	n := int(value / reference * float64(width))
	if n > width*2 {
		n = width * 2
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
