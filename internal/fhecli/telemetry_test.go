package fhecli

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStatsFlagPrintsSummary checks the -stats end-of-run table: op
// percentiles, counters and memory gauges all render.
func TestStatsFlagPrintsSummary(t *testing.T) {
	dir := setupKeys(t)
	tmp := filepath.Dir(dir)
	ctA := filepath.Join(tmp, "a.bin")
	ctB := filepath.Join(tmp, "b.bin")
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ctA, "1", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ctB, "3", "4"); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "-stats", "mul", "-dir", dir, "-out", filepath.Join(tmp, "p.bin"), ctA, ctB)
	if err != nil {
		t.Fatalf("mul with -stats: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== telemetry",
		"ckks.MulE", // checked-facade span histogram
		"p95 us",
		"ring.ntt",             // kernel counter
		"ring.ntt.bytes",       // traffic counter
		"mem.heap_alloc_bytes", // memory gauge
		// Key-vault telemetry: eval keys ship compressed, so the mul's
		// relinearization demand-materializes digits through the vault.
		"ckks.keyvault.expansions",
		"ckks.keyvault.misses",
		"ckks.keyvault.resident_bytes",
		"ckks.keyvault.budget_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsOffByDefault pins that a plain run prints no telemetry table
// (the recorder stays nil, so instrumentation costs one nil check).
func TestStatsOffByDefault(t *testing.T) {
	dir := setupKeys(t)
	tmp := filepath.Dir(dir)
	ct := filepath.Join(tmp, "a.bin")
	if _, err := run(t, "encrypt", "-dir", dir, "-out", ct, "1"); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "info", ct)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "telemetry") {
		t.Fatalf("telemetry table printed without -stats:\n%s", out)
	}
}
