package main

// The commands that drive the model directly — one bootstrap, a schedule,
// attribution trees — and their -trace-out/-metrics-out export. Each
// writes its export files before its table, so a reader that closes
// stdout early (`| head`) cannot lose them.

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/simfhe"
	"repro/internal/simfhe/design"
)

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

// exporting reports whether a command's spans and counters have anywhere
// to go, so commands skip building them when they do not.
func exporting(traceOut, metricsOut string) bool {
	return traceOut != "" || metricsOut != "" || debugRec != nil
}

// exportObs writes the trace and/or metrics files (empty paths skip) and
// mirrors the counters into the -debug-addr recorder when one is live.
func exportObs(traceOut, metricsOut string, spans []obs.SpanRecord, counters map[string]uint64) error {
	snap := obs.Snapshot{Spans: spans, Counters: counters}
	write := func(path, what string, fn func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s to %s\n", what, path)
		return nil
	}
	if err := write(traceOut, "Chrome trace", snap.WriteChromeTrace); err != nil {
		return err
	}
	if err := write(metricsOut, "Prometheus metrics", snap.WritePrometheus); err != nil {
		return err
	}
	for name, v := range counters {
		debugRec.Add(name, v) // nil-safe no-op without -debug-addr
	}
	return nil
}

// mergeMetrics accumulates a cost's counters into dst under the prefix.
func mergeMetrics(dst map[string]uint64, prefix string, c simfhe.Cost) {
	for k, v := range c.MetricsSnapshot(prefix) {
		dst[k] += v
	}
}

func boot(args []string, w io.Writer) error {
	fs := newFlagSet("boot")
	optsName := fs.String("opts", "all", "none | caching | all")
	mb := fs.Int("mb", 32, "on-chip memory in MB")
	paramsName := fs.String("params", "optimal", "baseline | optimal")
	logSlots := fs.Int("slots", 0, "log2 of sparse slot count (0 = fully packed)")
	traceOut := fs.String("trace-out", "", "write the bootstrap attribution as Chrome trace JSON")
	metricsOut := fs.String("metrics-out", "", "write the bootstrap cost as Prometheus text metrics")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	p, err := parseParams(*paramsName)
	if err != nil {
		return err
	}
	p.LogSlots = *logSlots
	if err := p.Validate(); err != nil {
		return fherr.Errorf(fherr.ErrUsage, "%v", err)
	}
	opts, err := parseOpts(*optsName)
	if err != nil {
		return err
	}
	cache, err := parseMB(*mb)
	if err != nil {
		return err
	}

	ctx := simfhe.NewCtx(p, cache, opts)
	bd := ctx.Bootstrap()
	if exporting(*traceOut, *metricsOut) {
		tb := &traceBuilder{m: refMachine}
		tb.add(ctx.BootstrapTree())
		metrics := map[string]uint64{}
		mergeMetrics(metrics, "simfhe_bootstrap", bd.Total())
		if err := exportObs(*traceOut, *metricsOut, tb.spans, metrics); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "== One bootstrap: %v, %d MB cache, opts=%s ==\n", p, *mb, *optsName)
	fmt.Fprintf(w, "effective opts: %+v\n", ctx.Opts)
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
		fmt.Fprintf(w, "%-12s %10.2f Gops %10.2f GB  AI %5.2f  switches %d\n",
			ph.name, ph.c.GOps(), ph.c.GB(), ph.c.AI(), ph.c.OrientationSwitches)
	}
	fmt.Fprintf(w, "levels consumed %d, limbs after %d, logQ1 %d\n\n", bd.LevelsConsumed, bd.LimbsAfter, bd.LogQ1)
	return nil
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

func runSchedule(args []string, w io.Writer) error {
	fs := newFlagSet("run")
	optsName := fs.String("opts", "all", "none | caching | all")
	mb := fs.Int("mb", 32, "on-chip memory in MB")
	traceOut := fs.String("trace-out", "", "write the per-step attribution as Chrome trace JSON")
	metricsOut := fs.String("metrics-out", "", "write the schedule totals as Prometheus text metrics")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var in io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if st, err := stdin.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
		// Interactive terminal (or /dev/null) and no file: don't block on
		// stdin, run the built-in demo schedule instead.
		fmt.Fprintln(stderr, "no schedule file and no piped stdin; running the built-in demo schedule")
		in = strings.NewReader(demoSchedule)
	}
	sched, err := simfhe.ParseSchedule(in)
	if err != nil {
		return err
	}
	opts, err := parseOpts(*optsName)
	if err != nil {
		return err
	}
	cache, err := parseMB(*mb)
	if err != nil {
		return err
	}
	ctx := simfhe.NewCtx(simfhe.Optimal(), cache, opts)
	res, err := ctx.RunSchedule(sched)
	if err != nil {
		return err
	}
	if exporting(*traceOut, *metricsOut) {
		spans, metrics := scheduleTrace(ctx, res)
		mergeMetrics(metrics, "simfhe_total", res.Total)
		if err := exportObs(*traceOut, *metricsOut, spans, metrics); err != nil {
			return err
		}
	}

	name := sched.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "schedule %s: %d steps, %d bootstraps inserted, final level %d\n",
		name, len(res.PerStep), res.Bootstraps, res.FinalLimbs)
	fmt.Fprintf(w, "total: %.2f Gops, %.2f GB DRAM, AI %.2f\n",
		res.Total.GOps(), res.Total.GB(), res.Total.AI())
	for _, d := range design.All() {
		rt := d.WithMemory(*mb).RuntimeSeconds(res.Total)
		fmt.Fprintf(w, "   on %-18s %10.3f s\n", d.Name, rt)
	}
	return nil
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

func traceCmd(args []string, w io.Writer) error {
	fs := newFlagSet("trace")
	optsName := fs.String("opts", "all", "none | caching | all")
	mb := fs.Int("mb", 32, "on-chip memory in MB")
	paramsName := fs.String("params", "optimal", "baseline | optimal")
	opName := fs.String("op", "all", "mult | rotate | keyswitch | ptmult | bootstrap | all")
	traceOut := fs.String("trace-out", "", "write the attribution as Chrome trace JSON")
	metricsOut := fs.String("metrics-out", "", "write the costs as Prometheus text metrics")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	p, err := parseParams(*paramsName)
	if err != nil {
		return err
	}
	opts, err := parseOpts(*optsName)
	if err != nil {
		return err
	}
	cache, err := parseMB(*mb)
	if err != nil {
		return err
	}
	ctx := simfhe.NewCtx(p, cache, opts)
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
		return fherr.Errorf(fherr.ErrUsage, "unknown -op: %s", *opName)
	}

	tb := &traceBuilder{m: refMachine}
	metrics := map[string]uint64{}
	trees := make([]*simfhe.CostTree, len(names))
	for i, name := range names {
		trees[i] = builders[name]()
		tb.add(trees[i])
		mergeMetrics(metrics, "simfhe_"+name, trees[i].Total())
	}
	if err := exportObs(*traceOut, *metricsOut, tb.spans, metrics); err != nil {
		return err
	}

	fmt.Fprintf(w, "== Cost attribution trees: %v, %d MB cache, opts=%s ==\n", p, *mb, *optsName)
	for _, t := range trees {
		t.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}
