// Command simfhe regenerates every table and figure of the paper's
// evaluation section from the simulator (Tables 4–6, Figures 2, 3 and
// 6), and drives the model directly: one bootstrap phase by phase, a
// schedule of operations, cost attribution trees, and the
// model-vs-measured validation report.
//
//	simfhe COMMAND [flags]
//
// The commands table below is the one list of subcommands; `simfhe -h`
// prints each with its synopsis, and `simfhe all` runs every experiment
// in table order. `simfhe json` is the machine-readable form of the
// experiments: it renders the same rows as their text tables.
//
// The run, boot and trace subcommands accept -trace-out FILE (Chrome
// trace_event JSON, loadable in chrome://tracing or Perfetto) and
// -metrics-out FILE (Prometheus text format); both files are written
// before the table, so a reader that closes stdout early cannot lose
// them. simfhe serves nothing over HTTP: it writes files, and fhed's
// GET /metrics and GET /healthz are the repository's live endpoints.
//
// Exit codes: 0 success, 1 generic failure (I/O, missing files, a
// failed -strict validation), 2 usage errors (bad flags, unknown
// commands or enum values, a negative -mb), 4 internal errors
// (recovered panics).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/fherr"
	"repro/internal/simfhe"
)

func main() {
	err := Run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfhe:", err)
	}
	os.Exit(fherr.ExitCode(err))
}

// command is one subcommand: its name, a one-line synopsis for the usage
// text, and its body, which writes its report to w.
type command struct {
	name, synopsis string
	run            func(args []string, w io.Writer) error
	// all is the argument lists `simfhe all` runs the command with, in
	// order; nil leaves the command out of `all`.
	all [][]string
}

// commands is the only list of subcommand names: dispatch, the usage
// line and `all` read it. It is filled in init because `all` reads it.
var commands []command

func init() {
	once := [][]string{nil}
	commands = []command{
		{"table4", "primitive-operation costs and arithmetic intensity", table4, once},
		{"fig2", "cumulative caching optimizations (bootstrap DRAM)", fig2, once},
		{"fig3", "cumulative algorithmic optimizations", fig3, once},
		{"table5", "baseline vs optimal bootstrapping parameters", table5, once},
		{"table6", "bootstrapping throughput vs prior designs", table6, once},
		{"fig6", "[-app=lr|resnet] LR-training / ResNet-20 comparisons", fig6, [][]string{{"-app=lr"}, {"-app=resnet"}}},
		{"boot", "[-opts=none|caching|all] [-mb=32] [-params=baseline|optimal] [-slots=N] one bootstrap, phase by phase", boot, nil},
		{"cost", "§4.4 performance vs area/cost trade-off", costTradeoff, once},
		{"run", "[-opts=…] [-mb=32] [FILE] price a schedule (mult x5 / rotate x16 / …) from FILE, stdin or a built-in demo", runSchedule, nil},
		{"trace", "[-op=mult|rotate|keyswitch|ptmult|bootstrap|all] per-sub-op cost attribution trees", traceCmd, nil},
		{"validate", "[-strict] [-logn=10] [-out FILE] measured vs ledger-predicted DRAM traffic of calibration probes and one bootstrap", validateCmd, nil},
		{"json", "every experiment as a machine-readable report", writeJSON, nil},
		{"all", "the paper's tables and figures and the cost trade-off, in sequence", runAll, nil},
	}
}

// Injection points for tests: run reads a schedule from stdin when given
// no file, and stderr carries progress notes, flag help and, under
// `validate -out -`, the text table.
var (
	stdin            = os.Stdin
	stderr io.Writer = os.Stderr
)

// Run executes one simfhe command line (without the program name) and
// writes the command's report to w. Errors are typed so main can map
// them to exit codes with fherr.ExitCode: bad flags, arguments and enum
// values wrap fherr.ErrUsage, and a panic anywhere in the model comes
// back as fherr.ErrInternal.
func Run(args []string, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fherr.Errorf(fherr.ErrInternal, "panic: %v", r)
		}
	}()
	global := newFlagSet("simfhe")
	global.Usage = usage
	if err := parseFlags(global, args); err != nil {
		return helpIsSuccess(err)
	}
	if global.NArg() == 0 {
		usage()
		return fherr.Errorf(fherr.ErrUsage, "no command given")
	}
	name, rest := global.Arg(0), global.Args()[1:]
	cmd, ok := lookup(name)
	if !ok {
		usage()
		return fherr.Errorf(fherr.ErrUsage, "unknown command %q", name)
	}
	return helpIsSuccess(cmd.run(rest, w))
}

func lookup(name string) (command, bool) {
	for _, c := range commands {
		if c.name == name {
			return c, true
		}
	}
	return command{}, false
}

func usage() {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(stderr, "usage: simfhe {%s} [flags]\n", strings.Join(names, "|"))
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(stderr, "  run/boot/trace accept -trace-out FILE (Chrome trace JSON) and -metrics-out FILE (Prometheus text)")
	fmt.Fprintln(stderr, "  simfhe writes files and serves nothing; fhed's GET /metrics and GET /healthz are the live endpoints")
}

// runAll runs every command the table marks for `all`, in table order.
func runAll(_ []string, w io.Writer) error {
	for _, c := range commands {
		for _, args := range c.all {
			if err := c.run(args, w); err != nil {
				return err
			}
		}
	}
	return nil
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses a command's flags. The flag package has already
// printed the problem and the defaults when it fails; -h comes back as
// flag.ErrHelp, which Run treats as success, and anything else is a
// usage error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return fherr.Errorf(fherr.ErrUsage, "%s: %v", fs.Name(), err)
}

func helpIsSuccess(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// parseOpts maps the shared -opts flag value.
func parseOpts(name string) (simfhe.OptSet, error) {
	switch name {
	case "none":
		return simfhe.NoOpts(), nil
	case "caching":
		return simfhe.CachingOpts(), nil
	case "all":
		return simfhe.AllOpts(), nil
	}
	return simfhe.OptSet{}, fherr.Errorf(fherr.ErrUsage, "unknown -opts: %s", name)
}

// parseParams maps the shared -params flag value.
func parseParams(name string) (simfhe.Params, error) {
	switch name {
	case "baseline":
		return simfhe.Baseline(), nil
	case "optimal":
		return simfhe.Optimal(), nil
	}
	return simfhe.Params{}, fherr.Errorf(fherr.ErrUsage, "unknown -params: %s", name)
}

// parseMB converts the shared -mb flag value. Zero is the no-cache
// point; a negative size would wrap to an unbounded cache.
func parseMB(mb int) (simfhe.CacheConfig, error) {
	if mb < 0 {
		return simfhe.CacheConfig{}, fherr.Errorf(fherr.ErrUsage, "-mb %d: the on-chip memory cannot be negative", mb)
	}
	return simfhe.MB(mb), nil
}
