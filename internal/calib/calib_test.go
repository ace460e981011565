package calib

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/fherr"
	"repro/internal/mathutil"
)

// reports caches one calibration run per ring degree the tests gate.
var reports = map[int]*struct {
	once sync.Once
	rep  *Report
	err  error
}{10: {}, 12: {}}

// report runs the calibration at logN once for every test here.
func report(t *testing.T, logN int) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("calibration traces full ops and a bootstrap; skipped in -short")
	}
	c := reports[logN]
	c.once.Do(func() { c.rep, c.err = Run(logN) })
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.rep
}

// forEachDegree runs test against the report of every cached degree.
func forEachDegree(t *testing.T, test func(*testing.T, *Report)) {
	for _, logN := range []int{10, 12} {
		t.Run(fmt.Sprintf("logN%d", logN), func(t *testing.T) { test(t, report(t, logN)) })
	}
}

// TestCalibrationTolerance is the acceptance bar of the model-validation
// work: at the calibration point every gated row lands within ±20% of the
// ledger's prediction, and the MAD toggle directions reproduce — at a
// degree the single-phase NTT kernel runs (logN 10) and one the blocked
// two-phase kernel runs (logN 12).
func TestCalibrationTolerance(t *testing.T) { forEachDegree(t, testCalibrationTolerance) }

func testCalibrationTolerance(t *testing.T, rep *Report) {
	var sb strings.Builder
	rep.WriteTable(&sb)
	t.Logf("\n%s", sb.String())

	rows := map[string]Row{}
	for _, row := range rep.Rows {
		rows[row.Name] = row
		if row.Gated && !row.WithinTol {
			t.Errorf("%s: measured %d vs predicted %d bytes (%+.1f%%) exceeds ±%.0f%%",
				row.Name, row.Meas.Total(), row.Pred, row.DeltaPct, 100*rep.Config.Tolerance)
		}
	}
	seen := map[string]bool{}
	for _, tg := range rep.Toggles {
		seen[tg.Name] = true
		if !tg.Agree {
			t.Errorf("toggle %s: predicted %d -> %d but measured %d -> %d (directions differ)",
				tg.Name, tg.Base.Pred, tg.Opt.Pred, tg.Base.Meas.Total(), tg.Opt.Meas.Total())
		}
	}
	for _, name := range []string{"cache_beta", "cache_alpha", "key_compress", "moddown_merge"} {
		if !seen[name] {
			t.Errorf("toggle %s missing from the report", name)
		}
	}
	if !rep.Gate() {
		t.Error("Gate() = false")
	}
}

// TestDriftBootstrapGate is the acceptance gate for the cost-ledger
// pipeline on the bootstrap workload: every priced op kind of a bootstrap
// is present, gated, and agrees with the kernel counters, and the span
// counts match the bootstrap's structure.
func TestDriftBootstrapGate(t *testing.T) {
	rep := report(t, 10)
	rows := map[string]Row{}
	for _, row := range rep.Rows {
		rows[row.Name] = row
	}
	if rep.SkippedSpans != 0 {
		t.Errorf("SkippedSpans = %d, want 0 (every top-level op span should carry a prediction)", rep.SkippedSpans)
	}

	for _, kind := range []string{"ckks.Mult", "ckks.Rescale", "ckks.Conjugate", "ckks.RotateHoisted"} {
		row, ok := rows[kind]
		if !ok {
			t.Errorf("kind %q missing from the report", kind)
			continue
		}
		if !row.Gated || !row.WithinTol {
			t.Errorf("%s: gated=%v, delta %+.1f%% against ±%.0f%%, want gated and inside it",
				kind, row.Gated, row.DeltaPct, 100*rep.Config.Tolerance)
		}
		// The model's limb-transform count must match the kernel counters
		// exactly: any mismatch means span windows leak work across op
		// boundaries.
		if row.PredNTT != row.MeasNTT {
			t.Errorf("%s: NTT count predicted %d != measured %d", kind, row.PredNTT, row.MeasNTT)
		}
	}
	// No library code composes the unfused pair any more: every product of
	// the bootstrap is a merged Mult.
	if row, ok := rows["ckks.MulRelin"]; ok {
		t.Errorf("%d top-level MulRelin spans in a bootstrap, want none", row.Count)
	}
	if row := rows["ckks.RotateHoisted"]; row.Count != bootProbes {
		t.Errorf("RotateHoisted count = %d, want %d probes", row.Count, bootProbes)
	}
	// Mult: the probes, plus per EvalMod half the sine polynomial's
	// non-scalar products and one per double-angle step, counted as
	// products: EvalMod batches a level's products into one span.
	bp := bootstrap.DefaultParameters()
	sineMults, _ := mathutil.NewPSPlan(bp.SineDegree).Cost()
	if row, want := rows["ckks.Mult"], bootProbes+2*(sineMults+bp.DoubleAngle); row.Products != want {
		t.Errorf("Mult products = %d, want %d (probes + 2 EvalMod halves)", row.Products, want)
	}

	// The report must round-trip as JSON for the CI artifact.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("JSON round trip changed the report:\n%s", blob)
	}
}

// TestCalibrationModeledGolden pins the predicted bytes of every row,
// toggle side and op kind: the ledger is the only pricing path, so a
// change here is a model or ledger change, never a harness one.
func TestCalibrationModeledGolden(t *testing.T) { forEachDegree(t, testModeledGolden) }

func testModeledGolden(t *testing.T, rep *Report) {
	got := map[string]uint64{}
	for _, row := range rep.Rows {
		got[row.Name] = row.Pred
	}
	for _, tg := range rep.Toggles {
		got[tg.Name+"/base"] = tg.Base.Pred
		got[tg.Name+"/opt"] = tg.Opt.Pred
	}
	want := modeledGolden[rep.Config.LogN]
	if !reflect.DeepEqual(got, want) {
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: predicted %d bytes, golden %d", name, got[name], w)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: predicted %d bytes, not in the golden", name, got[name])
			}
		}
	}
	counts := map[string]int{}
	for _, row := range rep.Rows {
		counts[row.Name] = row.Count
	}
	for kind, n := range map[string]int{"ckks.Conjugate": 1, "ckks.Mult": 12, "ckks.Rescale": 8, "ckks.RotateHoisted": 3} {
		if counts[kind] != n {
			t.Errorf("%s: %d spans, golden %d", kind, counts[kind], n)
		}
	}
}

// modeledGolden is every row's and toggle side's predicted bytes, per
// ring degree. The logN 12 map was recorded from the model.
var modeledGolden = map[int]map[string]uint64{
	10: {
		"mult":                  5455872,
		"rescale":               376832,
		"ntt_roundtrip":         393216,
		"rotate":                4489216,
		"rotate_hoisted_x8":     23134208,
		"ptmatvec_d8":           19906560,
		"ckks.Conjugate":        6553600,
		"ckks.Mult":             135012352,
		"ckks.Rescale":          2228224,
		"ckks.RotateHoisted":    128630784,
		"bootstrap.ModRaise":    851968,
		"bootstrap.CoeffToSlot": 135929856,
		"bootstrap.EvalMod":     142213120,
		"bootstrap.SlotToCoeff": 26165248,
		"cache_beta/base":       23134208,
		"cache_beta/opt":        20381696,
		"cache_alpha/base":      5455872,
		"cache_alpha/opt":       4145152,
		"key_compress/base":     4489216,
		"key_compress/opt":      4096000,
		"moddown_merge/base":    5455872,
		"moddown_merge/opt":     4669440,
	},
	12: {
		"mult":                  21823488,
		"rescale":               1507328,
		"ntt_roundtrip":         1572864,
		"rotate":                17956864,
		"rotate_hoisted_x8":     92536832,
		"ptmatvec_d8":           79626240,
		"ckks.Conjugate":        26214400,
		"ckks.Mult":             540049408,
		"ckks.Rescale":          8912896,
		"ckks.RotateHoisted":    514523136,
		"bootstrap.ModRaise":    3407872,
		"bootstrap.CoeffToSlot": 726630400,
		"bootstrap.EvalMod":     568852480,
		"bootstrap.SlotToCoeff": 178847744,
		"cache_beta/base":       92536832,
		"cache_beta/opt":        81526784,
		"cache_alpha/base":      21823488,
		"cache_alpha/opt":       16580608,
		"key_compress/base":     17956864,
		"key_compress/opt":      16384000,
		"moddown_merge/base":    21823488,
		"moddown_merge/opt":     18677760,
	},
}

// TestRunRejectsLogNOutsideDomain: a ring degree outside the overlap of
// the model's and the functional library's domains is a usage error
// (exit 2), raised before anything is built.
func TestRunRejectsLogNOutsideDomain(t *testing.T) {
	for _, logN := range []int{-1, 0, minLogN - 1, maxLogN + 1} {
		_, err := Run(logN)
		if !errors.Is(err, fherr.ErrUsage) || fherr.ExitCode(err) != fherr.ExitUsage {
			t.Errorf("Run(%d) = %v, want a usage error", logN, err)
		}
	}
}

// TestReportCounters checks the exporter flattening carries every row.
func TestReportCounters(t *testing.T) {
	rep := &Report{
		Rows: []Row{{Name: "mult", Pred: 100, Meas: Breakdown{Ct: 90, Scratch: 5}}},
		Toggles: []Toggle{{
			Name: "cache_beta", Base: Row{Pred: 10, Meas: Breakdown{Ct: 11}},
			Opt: Row{Pred: 8, Meas: Breakdown{Ct: 9}}, Agree: true,
		}},
	}
	c := rep.Counters()
	for name, want := range map[string]uint64{
		"calib_mult_predicted_bytes":                  100,
		"calib_mult_measured_bytes":                   95,
		"calib_mult_measured_scratch_bytes":           5,
		"calib_toggle_cache_beta_base_measured_bytes": 11,
		"calib_toggle_cache_beta_opt_predicted_bytes": 8,
		"calib_toggle_cache_beta_agree":               1,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
}
