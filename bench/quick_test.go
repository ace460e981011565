package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestQuickRun drives all four workloads end to end, timed and traced,
// with tiny op counts, so that the benchmark keeps compiling and running
// as the internal APIs move.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	t.Chdir("..") // the benchmark runs from the root of the checkout
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the benchmark", i, sp.Workloads[i].Name, w.name)
		}
	}
	for _, trace := range []string{"0", "1"} {
		if code := run([]string{"-quick", "--seed", "3", "--trace", trace}); code != 0 {
			t.Fatalf("bench -quick --trace %s exited with %d", trace, code)
		}
	}
	for _, w := range workloads {
		data, err := os.ReadFile("bench/out/trace-" + w.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if tf.Workload != w.name || tf.Meta.Seed != 3 || len(tf.Spans) == 0 {
			t.Errorf("%s: trace file has workload %q, seed %d, %d spans", w.name, tf.Workload, tf.Meta.Seed, len(tf.Spans))
		}
	}
}
