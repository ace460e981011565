package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// exactMetric must read the same in both sets: it is a count made by the
// program, not a time.
const exactMetric = "kernel_mb_per_op"

// selfCheck runs the end-to-end command as two independent sets of runs,
// A and B, of the same code on the same seeds, alternating between the
// sets, and prints per workload and metric both medians, their gap, the
// bound and each set's quartile spread. It fails if a gap exceeds its
// bound, if the exact metric differs at all, or if any op failed.
func selfCheck(sp spec, selected []workload, cfg runConfig, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range selected {
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for i := 0; i < runs; i++ {
			for set := range sets {
				r, err := childRun(self, w.name, cfg.seed+uint64(i), cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s run %d%c: %v\n", w.name, i, 'A'+set, err)
					return 1
				}
				failed += r.Failed
				for name, m := range r.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%-16s %-20s %12s %12s %8s %8s %9s %9s\n", "workload", "metric", "median A", "median B", "gap", "bound", "spread A", "spread B")
		for _, d := range sp.EndToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			gap := max(d.worseBy(a, b), d.worseBy(b, a)) // the same code: neither set may be the worse one
			verdict := ""
			if d.regressed(a, b) || d.regressed(b, a) || (d.Name == exactMetric && a != b) {
				verdict, status = "  FAIL", 1
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %8.2f%% %8.2f%%%s\n", w.name, d.Name, a, b,
				100*gap, 100*d.Bound, 100*quartileSpread(sets[0][d.Name]), 100*quartileSpread(sets[1][d.Name]), verdict)
		}
		if failed > 0 {
			fmt.Printf("%-16s %d ops failed  FAIL\n", w.name, failed)
			status = 1
		}
	}
	return status
}

// childRun runs one end-to-end run in a process of its own and parses the
// last line of its standard output.
func childRun(self, workload string, seed uint64, cfg runConfig) (result, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(cfg.seconds), "--trace", "0"}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("last line of output: %w", err)
	}
	return r, nil
}
