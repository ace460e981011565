// Command simfhe regenerates every table and figure of the paper's
// evaluation section from the simulator:
//
//	simfhe table4            primitive-operation costs and arithmetic intensity
//	simfhe fig2              cumulative caching optimizations (bootstrap DRAM)
//	simfhe fig3              cumulative algorithmic optimizations
//	simfhe table5            baseline vs optimal bootstrapping parameters
//	simfhe table6            bootstrapping throughput vs prior designs
//	simfhe fig6 [-app=lr|resnet]   LR-training / ResNet-20 comparisons
//	simfhe boot [-opts=none|caching|all] [-mb=32] [-params=baseline|optimal]
//	                         one bootstrap, phase by phase
//	simfhe cost              §4.4 performance vs area/cost trade-off
//	simfhe sweep [-axis=fftiter] sensitivity sweep around the optimal point
//	simfhe validate [-strict] [-out=FILE] [-cache-limbs=6]
//	                         trace calibration probes and one bootstrap
//	                         through the cache simulator and compare
//	                         measured DRAM traffic against the cost
//	                         ledger's prediction per top-level op span
//	simfhe ai                Table 4 on a roofline (ridge points, utilization)
//	simfhe json              every experiment as a machine-readable report
//	simfhe run <file>        run a schedule DSL file through the model
//	                         (one op per line: mult x5 / rotate x16 / …)
//	simfhe trace             per-sub-op cost attribution trees, exportable
//	                         as a Chrome trace / Prometheus metrics
//	simfhe all               everything above in sequence
//
// The run, boot and trace subcommands accept -trace-out FILE (Chrome
// trace_event JSON, loadable in chrome://tracing or Perfetto) and
// -metrics-out FILE (Prometheus text format). A leading -debug-addr
// ADDR serves /debug/pprof, /metrics and a /healthz liveness report
// over HTTP while the command runs:
//
//	simfhe -debug-addr localhost:6060 run sched.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/simfhe"
	"repro/internal/simfhe/apps"
	"repro/internal/simfhe/design"
	"repro/internal/simfhe/search"
)

// debugRec backs the /metrics endpoint when -debug-addr is set; the
// subcommands mirror their exported counters into it.
var debugRec *obs.Recorder

func main() {
	global := flag.NewFlagSet("simfhe", flag.ExitOnError)
	debugAddr := global.String("debug-addr", "",
		"serve /debug/pprof, /metrics and /healthz on this address (e.g. localhost:6060) while the command runs")
	global.Usage = func() { usage(); global.PrintDefaults() }
	global.Parse(os.Args[1:])
	rest := global.Args()
	if len(rest) < 1 {
		usage()
		os.Exit(2)
	}
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		debugRec = obs.NewRecorder()
		var err error
		dbg, err = obs.NewDebugServer(*debugAddr, debugRec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simfhe:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/ and http://%s/metrics\n", dbg.Addr, dbg.Addr)
	}
	cmd, args := rest[0], rest[1:]
	if err := runRecovered(cmd, args); err != nil {
		// A panic anywhere in the model is a bug, not a usage error:
		// report it with its own exit code so harnesses can tell the two
		// apart, after draining the debug server.
		fmt.Fprintln(os.Stderr, "simfhe:", err)
		dbg.Shutdown(2 * time.Second)
		os.Exit(fherr.ExitInternal)
	}
	if dbg != nil {
		fmt.Fprintln(os.Stderr, "command done; still serving -debug-addr endpoints (SIGINT to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Bounded drain: in-flight profile scrapes get two seconds, then
		// the listener is force-closed so the process cannot hang.
		if err := dbg.Shutdown(2 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "simfhe: debug server shutdown:", err)
		}
	}
}

// runRecovered converts a panic inside any subcommand into a typed
// error so main can exit with the internal-error code instead of a
// stack-trace crash.
func runRecovered(cmd string, args []string) (err error) {
	defer fherr.RecoverTo(&err)
	run(cmd, args)
	return nil
}

func run(cmd string, args []string) {
	switch cmd {
	case "table4":
		table4()
	case "fig2":
		fig2()
	case "fig3":
		fig3()
	case "table5":
		table5()
	case "table6":
		table6()
	case "fig6":
		fig6(args)
	case "boot":
		boot(args)
	case "cost":
		costTradeoff()
	case "run":
		runSchedule(args)
	case "trace":
		traceCmd(args)
	case "sweep":
		sweep(args)
	case "validate":
		validateCmd(args)
	case "ai":
		aiRoofline()
	case "json":
		if err := core.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "all":
		table4()
		fig2()
		fig3()
		table5()
		table6()
		fig6([]string{"-app=lr"})
		fig6([]string{"-app=resnet"})
		costTradeoff()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: simfhe [-debug-addr ADDR] {table4|fig2|fig3|table5|table6|fig6|boot|cost|run|trace|sweep|validate|ai|json|all} [flags]")
	fmt.Fprintln(os.Stderr, "  run/boot/trace accept -trace-out FILE (Chrome trace JSON) and -metrics-out FILE (Prometheus text)")
	fmt.Fprintln(os.Stderr, "  validate [-strict] [-out FILE] traces calibration probes and one bootstrap through the cache simulator and compares measured vs ledger-predicted DRAM traffic")
}

// refMachine is the paper's 32 MB reference system (8192 modular
// multipliers at 1 GHz, 1 TB/s of DRAM bandwidth) — the roofline used to
// lay modeled costs out on a synthetic timeline.
var refMachine = simfhe.Machine{PeakOpsPerSec: 8192e9, PeakBytesPerSec: 1e12}

// parseOpts maps the shared -opts flag value.
func parseOpts(name string) simfhe.OptSet {
	switch name {
	case "none":
		return simfhe.NoOpts()
	case "caching":
		return simfhe.CachingOpts()
	case "all":
		return simfhe.AllOpts()
	default:
		fmt.Fprintln(os.Stderr, "unknown -opts:", name)
		os.Exit(2)
		return simfhe.OptSet{}
	}
}

// parseParams maps the shared -params flag value.
func parseParams(name string) simfhe.Params {
	switch name {
	case "baseline":
		return simfhe.Baseline()
	case "optimal":
		return simfhe.Optimal()
	default:
		fmt.Fprintln(os.Stderr, "unknown -params:", name)
		os.Exit(2)
		return simfhe.Params{}
	}
}

// traceBuilder lays several attribution trees out sequentially on one
// synthetic timeline, keeping span IDs globally unique.
type traceBuilder struct {
	m      simfhe.Machine
	spans  []obs.SpanRecord
	cursor time.Duration
	idOff  uint64
}

func (b *traceBuilder) add(t *simfhe.CostTree) {
	sp := t.SpanRecords(b.m, b.cursor)
	for i := range sp {
		sp[i].ID += b.idOff
		if sp[i].Parent != 0 {
			sp[i].Parent += b.idOff
		}
	}
	b.idOff += uint64(len(sp))
	if len(sp) > 0 {
		b.cursor = sp[0].Start + sp[0].Dur
	}
	b.spans = append(b.spans, sp...)
}

// exportObs writes the trace and/or metrics files (empty paths skip) and
// mirrors the counters into the -debug-addr recorder when one is live.
func exportObs(traceOut, metricsOut string, spans []obs.SpanRecord, counters map[string]uint64) {
	snap := obs.Snapshot{Spans: spans, Counters: counters}
	write := func(path, what string, fn func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
	}
	if traceOut != "" {
		write(traceOut, "Chrome trace", snap.WriteChromeTrace)
	}
	if metricsOut != "" {
		write(metricsOut, "Prometheus metrics", snap.WritePrometheus)
	}
	for name, v := range counters {
		debugRec.Add(name, v) // nil-safe no-op without -debug-addr
	}
}

// mergeMetrics accumulates a cost's counters into dst under the prefix.
func mergeMetrics(dst map[string]uint64, prefix string, c simfhe.Cost) {
	for k, v := range c.MetricsSnapshot(prefix) {
		dst[k] += v
	}
}

func table4() {
	fmt.Println("== Table 4: ops (Gops), DRAM (GB), arithmetic intensity ==")
	fmt.Println("   logN=17, l=35, dnum=3, minimal (1-2 limb) cache")
	fmt.Printf("%-14s %10s %10s %8s   %10s %10s %8s\n", "Operation", "Gops", "GB", "AI", "paper:Gops", "paper:GB", "AI")
	for _, r := range core.Table4() {
		fmt.Printf("%-14s %10.4f %10.4f %8.2f   %10.4f %10.4f %8.2f\n",
			r.Name, r.Cost.GOps(), r.Cost.GB(), r.Cost.AI(), r.Paper.GOps, r.Paper.GB, r.Paper.AI)
	}
	fmt.Println()
}

func fig2() {
	fmt.Println("== Figure 2: cumulative caching optimizations, one bootstrap, baseline params ==")
	pts := core.Figure2()
	base := pts[0].Cost
	fmt.Printf("%-18s %6s %10s %10s %9s %8s %8s\n", "Configuration", "cache", "DRAM (GB)", "vs base", "ct-reads", "ct-wr", "AI")
	for _, pt := range pts {
		fmt.Printf("%-18s %4dMB %10.2f %+9.1f%% %8.1fG %7.1fG %8.2f  %s\n",
			pt.Name, pt.CacheMB, pt.Cost.GB(),
			100*(float64(pt.Cost.Bytes())/float64(base.Bytes())-1),
			float64(pt.Cost.CtRead)/1e9, float64(pt.Cost.CtWrite)/1e9, pt.Cost.AI(),
			bar(float64(pt.Cost.Bytes()), float64(base.Bytes()), 32))
	}
	fmt.Println("   paper cumulative DRAM: -15%, -22%, -44%, -52%; AI 0.72 -> 1.25")
	fmt.Println()
}

func fig3() {
	fmt.Println("== Figure 3: cumulative algorithmic optimizations, optimal params + caching ==")
	pts := core.Figure3()
	base := pts[0].Cost
	fmt.Printf("%-20s %10s %10s %9s %9s %8s\n", "Configuration", "Gops", "DRAM (GB)", "ops vs b", "key reads", "AI")
	for _, pt := range pts {
		fmt.Printf("%-20s %10.2f %10.2f %+8.1f%% %8.1fG %8.2f  %s\n",
			pt.Name, pt.Cost.GOps(), pt.Cost.GB(),
			100*(float64(pt.Cost.Ops())/float64(base.Ops())-1),
			float64(pt.Cost.KeyRead)/1e9, pt.Cost.AI(),
			bar(float64(pt.Cost.Bytes()), float64(base.Bytes()), 32))
	}
	fmt.Println("   paper: merge ops -6%; hoist ops -34%, ct DRAM -19%, keys +25%; keycomp keys -50%")
	fmt.Println()
}

func table5() {
	fmt.Println("== Table 5: bootstrapping parameters (n = 2^16 slots) ==")
	baseline, paperOpt, best := core.Table5()
	fmt.Printf("%-22s q=%2d L=%2d dnum=%d fftIter=%d\n", "Baseline [20]:", baseline.LogQ, baseline.L, baseline.Dnum, baseline.FFTIter)
	fmt.Printf("%-22s q=%2d L=%2d dnum=%d fftIter=%d\n", "Paper optimal:", paperOpt.LogQ, paperOpt.L, paperOpt.Dnum, paperOpt.FFTIter)
	fmt.Printf("%-22s q=%2d L=%2d dnum=%d fftIter=%d  (throughput %.0f, logQ1 %d, %.1f ms on the 32 MB reference system)\n",
		"Our search optimum:", best.Params.LogQ, best.Params.L, best.Params.Dnum, best.Params.FFTIter,
		best.Throughput, best.LogQ1, best.RuntimeMs)
	fmt.Println("   note: the paper's dnum=2 needs a 45 MB O(α) working set; under this model's strict")
	fmt.Println("   32 MB capacity filter the search prefers dnum=3 (see EXPERIMENTS.md)")
	fmt.Println()
}

func table6() {
	fmt.Println("== Table 6: bootstrapping throughput, original designs vs +MAD at 32 MB ==")
	fmt.Printf("%-18s %10s | %9s %10s %7s %10s\n", "Design", "orig tput", "MAD ms", "MAD tput", "logQ1", "normalized")
	for _, r := range design.Table6() {
		bound := "mem-bound"
		if r.MAD.ComputeBound {
			bound = "compute-bound"
		}
		fmt.Printf("%-18s %10.1f | %9.2f %10.1f %7d %10.4f  (%s)\n",
			r.Original.Name, r.OrigTput, r.MAD.RuntimeMs, r.MAD.Throughput, r.MAD.LogQ1, r.Normalized, bound)
	}
	fmt.Println("   paper normalized: GPU 0.1361, F1 0.0005, BTS 1.7178, ARK 2.1326, CL 4.6248")
	fmt.Println()
}

func fig6(args []string) {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	app := fs.String("app", "lr", "lr or resnet")
	fs.Parse(args)

	var data map[string][]apps.Figure6Point
	switch *app {
	case "lr":
		fmt.Println("== Figure 6 (a-e): logistic-regression training time ==")
		data = apps.Figure6LR()
	case "resnet":
		fmt.Println("== Figure 6 (f-h): ResNet-20 inference time ==")
		data = apps.Figure6ResNet()
	default:
		fmt.Fprintln(os.Stderr, "unknown -app:", *app)
		os.Exit(2)
	}
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s:\n", name)
		var modeled float64
		for _, pt := range data[name] {
			note := ""
			if pt.Published {
				note = "  [published]"
			} else if modeled == 0 {
				modeled = pt.RuntimeS
			} else if modeled > 0 {
				note = fmt.Sprintf("  [%.1fx vs modeled original]", modeled/pt.RuntimeS)
			}
			fmt.Printf("   %-34s %9.3f s%s\n", pt.Label, pt.RuntimeS, note)
		}
	}
	fmt.Println()
}

func boot(args []string) {
	fs := flag.NewFlagSet("boot", flag.ExitOnError)
	optsName := fs.String("opts", "all", "none | caching | all")
	mb := fs.Int("mb", 32, "on-chip memory in MB")
	paramsName := fs.String("params", "optimal", "baseline | optimal")
	logSlots := fs.Int("slots", 0, "log2 of sparse slot count (0 = fully packed)")
	traceOut := fs.String("trace-out", "", "write the bootstrap attribution as Chrome trace JSON")
	metricsOut := fs.String("metrics-out", "", "write the bootstrap cost as Prometheus text metrics")
	fs.Parse(args)

	p := parseParams(*paramsName)
	p.LogSlots = *logSlots
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := parseOpts(*optsName)

	ctx := simfhe.NewCtx(p, simfhe.MB(*mb), opts)
	bd := ctx.Bootstrap()
	fmt.Printf("== One bootstrap: %v, %d MB cache, opts=%s ==\n", p, *mb, *optsName)
	fmt.Printf("effective opts: %+v\n", ctx.Opts)
	for _, ph := range []struct {
		name string
		c    simfhe.Cost
	}{
		{"ModRaise", bd.ModRaise},
		{"CoeffToSlot", bd.CoeffToSlot},
		{"EvalMod", bd.EvalMod},
		{"SlotToCoeff", bd.SlotToCoeff},
		{"TOTAL", bd.Total()},
	} {
		fmt.Printf("%-12s %10.2f Gops %10.2f GB  AI %5.2f  switches %d\n",
			ph.name, ph.c.GOps(), ph.c.GB(), ph.c.AI(), ph.c.OrientationSwitches)
	}
	fmt.Printf("levels consumed %d, limbs after %d, logQ1 %d\n\n", bd.LevelsConsumed, bd.LimbsAfter, bd.LogQ1)

	if *traceOut != "" || *metricsOut != "" || debugRec != nil {
		tb := &traceBuilder{m: refMachine}
		tb.add(ctx.BootstrapTree())
		metrics := map[string]uint64{}
		mergeMetrics(metrics, "simfhe_bootstrap", bd.Total())
		exportObs(*traceOut, *metricsOut, tb.spans, metrics)
	}
}

func costTradeoff() {
	fmt.Println("== §4.4: performance vs area/cost (BTS design + MAD, sweeping on-chip memory) ==")
	a := design.DefaultAreaModel()
	fmt.Printf("%6s %10s %10s %10s %10s %10s %10s\n", "MB", "boot ms", "tput", "die mm2", "tput/mm2", "mem frac", "rel cost")
	for _, pt := range design.Tradeoff(a, design.BTS, []int{32, 64, 128, 256, 512}, simfhe.Optimal()) {
		fmt.Printf("%6d %10.1f %10.0f %10.0f %10.2f %9.0f%% %10.2f\n",
			pt.Design.OnChipMB, pt.RuntimeMs, pt.Throughput, pt.AreaMm2,
			pt.TputPerMm2, 100*pt.MemoryFrac, pt.CostVsDefault)
	}
	fmt.Println("   paper: a 16x memory reduction (512 -> 32 MB) proportionally reduces the cost of the solution")
	fmt.Println()
}

// demoSchedule stands in when `simfhe run` has neither a file argument
// nor piped stdin, so the trace/metrics exporters are one command away.
const demoSchedule = `name: demo
mult x2
rotate x4
rescale
ptmult x2
add x4
`

func runSchedule(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	optsName := fs.String("opts", "all", "none | caching | all")
	mb := fs.Int("mb", 32, "on-chip memory in MB")
	traceOut := fs.String("trace-out", "", "write the per-step attribution as Chrome trace JSON")
	metricsOut := fs.String("metrics-out", "", "write the schedule totals as Prometheus text metrics")
	fs.Parse(args)
	var in io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	} else if st, err := os.Stdin.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
		// Interactive terminal (or /dev/null) and no file: don't block on
		// stdin, run the built-in demo schedule instead.
		fmt.Fprintln(os.Stderr, "no schedule file and no piped stdin; running the built-in demo schedule")
		in = strings.NewReader(demoSchedule)
	}
	sched, err := simfhe.ParseSchedule(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := parseOpts(*optsName)
	ctx := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(*mb), opts)
	res, err := ctx.RunSchedule(sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	name := sched.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("schedule %s: %d steps, %d bootstraps inserted, final level %d\n",
		name, len(res.PerStep), res.Bootstraps, res.FinalLimbs)
	fmt.Printf("total: %.2f Gops, %.2f GB DRAM, AI %.2f\n",
		res.Total.GOps(), res.Total.GB(), res.Total.AI())
	for _, d := range design.All() {
		rt := d.WithMemory(*mb).RuntimeSeconds(res.Total)
		fmt.Printf("   on %-18s %10.3f s\n", d.Name, rt)
	}

	if *traceOut != "" || *metricsOut != "" || debugRec != nil {
		spans, metrics := scheduleTrace(ctx, res)
		mergeMetrics(metrics, "simfhe_total", res.Total)
		exportObs(*traceOut, *metricsOut, spans, metrics)
	}
}

// scheduleTrace lays the attribution tree RunSchedule recorded for each
// executed op (and one bootstrap tree per auto-inserted bootstrap) out on
// a synthetic roofline timeline.
func scheduleTrace(ctx simfhe.Ctx, res simfhe.ScheduleResult) ([]obs.SpanRecord, map[string]uint64) {
	tb := &traceBuilder{m: refMachine}
	metrics := map[string]uint64{}
	for _, sc := range res.PerStep {
		if sc.AutoBootstrap {
			tb.add(ctx.BootstrapTree())
			metrics["simfhe_ops_bootstrap"]++
		}
		tb.add(sc.Tree)
		metrics["simfhe_ops_"+sc.Step.Kind.String()]++
	}
	return tb.spans, metrics
}

func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	optsName := fs.String("opts", "all", "none | caching | all")
	mb := fs.Int("mb", 32, "on-chip memory in MB")
	paramsName := fs.String("params", "optimal", "baseline | optimal")
	opName := fs.String("op", "all", "mult | rotate | keyswitch | ptmult | bootstrap | all")
	traceOut := fs.String("trace-out", "", "write the attribution as Chrome trace JSON")
	metricsOut := fs.String("metrics-out", "", "write the costs as Prometheus text metrics")
	fs.Parse(args)

	p := parseParams(*paramsName)
	ctx := simfhe.NewCtx(p, simfhe.MB(*mb), parseOpts(*optsName))
	l := p.L
	builders := map[string]func() *simfhe.CostTree{
		"mult":      func() *simfhe.CostTree { return ctx.MultTree(l) },
		"rotate":    func() *simfhe.CostTree { return ctx.RotateTree(l) },
		"keyswitch": func() *simfhe.CostTree { return ctx.KeySwitchTree(l) },
		"ptmult":    func() *simfhe.CostTree { return ctx.PtMultTree(l) },
		"bootstrap": func() *simfhe.CostTree { return ctx.BootstrapTree() },
	}
	var names []string
	if *opName == "all" {
		names = []string{"mult", "rotate", "keyswitch", "ptmult", "bootstrap"}
	} else if _, ok := builders[*opName]; ok {
		names = []string{*opName}
	} else {
		fmt.Fprintln(os.Stderr, "unknown -op:", *opName)
		os.Exit(2)
	}

	fmt.Printf("== Cost attribution trees: %v, %d MB cache, opts=%s ==\n", p, *mb, *optsName)
	tb := &traceBuilder{m: refMachine}
	metrics := map[string]uint64{}
	for _, name := range names {
		t := builders[name]()
		t.Render(os.Stdout)
		fmt.Println()
		tb.add(t)
		mergeMetrics(metrics, "simfhe_"+name, t.Total())
	}
	exportObs(*traceOut, *metricsOut, tb.spans, metrics)
}

func sweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	axisName := fs.String("axis", "fftiter", "logq | L | dnum | fftiter | cache")
	fs.Parse(args)
	axis := search.Axis(*axisName)
	values := map[search.Axis][]int{
		search.AxisLogQ:    {30, 35, 40, 45, 50, 54, 58},
		search.AxisL:       {25, 30, 35, 40, 45, 50},
		search.AxisDnum:    {1, 2, 3, 4, 5, 6},
		search.AxisFFTIter: {1, 2, 3, 4, 5, 6, 7, 8},
		search.AxisCacheMB: {1, 2, 6, 16, 27, 32, 64, 128, 256},
	}[axis]
	if values == nil {
		fmt.Fprintln(os.Stderr, "unknown axis:", *axisName)
		os.Exit(2)
	}
	fmt.Printf("== Sensitivity: %s around the optimal point (all MAD opts, 32 MB reference) ==\n", axis)
	fmt.Printf("%8s %10s %10s %8s %10s\n", string(axis), "runtime", "throughput", "logQ1", "feasible")
	for _, pt := range search.Sweep(axis, values, simfhe.Optimal(), search.ReferenceDesign(), simfhe.AllOpts()) {
		if !pt.Feasible {
			fmt.Printf("%8d %10s %10s %8s %10s\n", pt.Value, "-", "-", "-", "no")
			continue
		}
		fmt.Printf("%8d %8.1fms %10.0f %8d %10s\n", pt.Value, pt.RuntimeMs, pt.Throughput, pt.LogQ1, "yes")
	}
	fmt.Println()
}

func aiRoofline() {
	fmt.Println("== Arithmetic intensity on a roofline (8192 multipliers @1 GHz, 1 TB/s) ==")
	m := simfhe.Machine{PeakOpsPerSec: 8192e9, PeakBytesPerSec: 1e12}
	fmt.Printf("ridge point: %.1f ops/byte\n", m.RidgeAI())
	ctx := simfhe.NewCtx(simfhe.Baseline(), simfhe.MB(2), simfhe.NoOpts())
	l := ctx.P.L
	named := map[string]simfhe.Cost{
		"Add":       ctx.Add(l),
		"PtMult":    ctx.PtMult(l),
		"Mult":      ctx.Mult(l),
		"Rotate":    ctx.Rotate(l),
		"Bootstrap": ctx.Bootstrap().Total(),
	}
	optimized := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(64), simfhe.AllOpts())
	named["Bootstrap+MAD"] = optimized.Bootstrap().Total()
	pts := simfhe.Roofline(m, named)
	sort.Slice(pts, func(i, j int) bool { return pts[i].AI < pts[j].AI })
	fmt.Printf("%-14s %10s %14s %12s %12s\n", "workload", "AI", "attainable", "utilization", "bound")
	for _, pt := range pts {
		bound := "memory"
		if !pt.MemoryBound {
			bound = "compute"
		}
		fmt.Printf("%-14s %10.2f %11.2f Gop/s %11.1f%% %12s\n",
			pt.Name, pt.AI, pt.Attainable/1e9, 100*pt.Utilization, bound)
	}
	fmt.Println("   paper §2.3: all primitives < 1 op/byte -> memory-bound on any realistic platform")
	fmt.Println()
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
