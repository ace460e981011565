// Command bench is the repository's benchmark: four workloads over the Go
// CKKS stack and the fhed server, measured from outside through public
// functions and the attach points that already exist. BENCHMARK.json at
// the repository root declares its command, workloads and metrics; see
// README.md in this directory for the glossary.
//
//	bash bench/run.sh --workload mult_chain --seed 1 --seconds 26 --trace 0
//
// prints the end-to-end metrics of one workload, and with --trace 1 its
// per-layer metrics; the last line of standard output is one JSON object.
// Without --workload it runs all four. -selfcheck runs the end-to-end
// command as two sets of runs and compares them against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	quick := fs.Bool("quick", false, "tiny op counts, no percentile rule: checks that everything runs")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of end-to-end runs and compare them against the bounds")
	runs := fs.Int("runs", 5, "runs per set and workload under -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [-quick] [-selfcheck [-runs n]]")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick}
	if cfg.seconds == 0 && !cfg.quick {
		cfg.seconds = sp.RunSeconds
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *selfcheck {
		return selfCheck(sp, selected, cfg, *runs)
	}

	status := 0
	for _, w := range selected {
		var r result
		if *trace == 1 {
			r, err = runTraced(w, cfg, sp.PerLayer)
		} else {
			r, err = runTimed(w, cfg, sp.EndToEnd)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printMetrics(w.name, sp, r)
		line, _ := json.Marshal(r) // numbers, strings and bools marshal
		fmt.Printf("%s\n", line)
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed\n", w.name, r.Failed, r.Attempted)
			status = 1
		}
	}
	return status
}

// printMetrics lists every metric of a result by name, in the order
// BENCHMARK.json declares them.
func printMetrics(workload string, sp spec, r result) {
	for _, defs := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.Name]; ok {
				fmt.Printf("%-16s %-34s %14.4f %s\n", workload, d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Printf("%-16s %-34s %14d of %d\n", workload, "failed", r.Failed, r.Attempted)
}
