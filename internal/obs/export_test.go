package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite exporter golden files")

// goldenSnapshot is a fixed snapshot covering spans (nested), span
// counter deltas, counters, gauges, and a name needing Prometheus
// sanitization.
func goldenSnapshot() Snapshot {
	return Snapshot{
		Spans: []SpanRecord{
			{ID: 1, Parent: 0, Name: "Mult", Start: 0, Dur: 1500 * time.Microsecond,
				Counters: map[string]uint64{"ckks.ntt": 12}},
			{ID: 2, Parent: 1, Name: "KeySwitch", Start: 100 * time.Microsecond, Dur: 800 * time.Microsecond},
			{ID: 3, Parent: 0, Name: "Rescale", Start: 1500 * time.Microsecond, Dur: 250 * time.Microsecond},
		},
		Counters: map[string]uint64{
			"ckks.ntt":       12,
			"ckks.keyswitch": 1,
		},
		Gauges: map[string]float64{
			"cache_mb": 32,
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/obs -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The output must be valid JSON with the trace_event envelope.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var slices int
	for _, ev := range parsed.TraceEvents {
		if ev["ph"] == "X" || ev["ph"] == "i" {
			slices++
		}
	}
	if slices != 4 { // 3 spans + metrics instant; metadata events don't count
		t.Fatalf("got %d slice/instant events, want 4", slices)
	}
	checkGolden(t, "chrome_trace.golden.json", buf.Bytes())
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ckks_ntt_total 12", "ckks_keyswitch_total 1", "cache_mb 32"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	checkGolden(t, "prometheus.golden.txt", buf.Bytes())
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"ckks.ntt":     "ckks_ntt",
		"simfhe/bytes": "simfhe_bytes",
		"9lives":       "_9lives",
		"ok_name:x":    "ok_name:x",
		"":             "_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestChromeTraceEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := (Snapshot{}).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents": []`) {
		t.Fatalf("empty snapshot trace malformed: %s", buf.String())
	}
}
