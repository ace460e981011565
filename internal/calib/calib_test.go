package calib

import (
	"strings"
	"testing"
)

// TestCalibrationTolerance is the acceptance bar of the model-validation
// work: at the default calibration point the measured DRAM traffic of
// the unoptimized Mult and Rescale must land within ±20% of the model,
// and the MAD toggle directions must reproduce.
func TestCalibrationTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration traces full ops; skipped in -short")
	}
	rep, err := Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.WriteTable(&sb)
	t.Logf("\n%s", sb.String())

	for _, row := range rep.Rows {
		if row.Informational {
			continue
		}
		if !row.WithinTol {
			t.Errorf("%s: measured %d vs modeled %d bytes (%+.1f%%) exceeds ±%.0f%%",
				row.Op, row.Measured.Total(), row.Modeled.Total(), row.DeltaPct,
				100*rep.Config.Tolerance)
		}
	}
	seen := map[string]bool{}
	for _, tg := range rep.Toggles {
		seen[tg.Name] = true
		if !tg.Agree {
			t.Errorf("toggle %s: modeled %+.1f%% but measured %+.1f%% (directions differ)",
				tg.Name, tg.ModeledPct, tg.MeasuredPct)
		}
	}
	for _, name := range []string{"cache_beta", "cache_alpha", "key_compress", "moddown_merge"} {
		if !seen[name] {
			t.Errorf("toggle %s missing from the report", name)
		}
	}
}

// TestReportCounters checks the exporter flattening carries every row.
func TestReportCounters(t *testing.T) {
	rep := &Report{
		Rows: []Row{{Op: "mult", Modeled: Breakdown{Ct: 100}, Measured: Breakdown{Ct: 90, Scratch: 5}}},
		Toggles: []ToggleRow{{
			Name: "cache_beta", ModeledBase: 10, ModeledOpt: 8,
			MeasuredBase: 11, MeasuredOpt: 9, Agree: true,
		}},
	}
	c := rep.Counters()
	if c["calib_mult_modeled_bytes"] != 100 {
		t.Errorf("modeled = %d, want 100", c["calib_mult_modeled_bytes"])
	}
	if c["calib_mult_measured_bytes"] != 95 {
		t.Errorf("measured = %d, want 95", c["calib_mult_measured_bytes"])
	}
	if c["calib_toggle_cache_beta_agree"] != 1 {
		t.Errorf("agree = %d, want 1", c["calib_toggle_cache_beta_agree"])
	}
}
