package calib

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/mathutil"
)

// TestDriftBootstrapGate is the acceptance gate for the cost-ledger
// pipeline: on the bootstrap workload, every gated kind must sit within
// its tolerance — in particular Mult and Rescale within the calibrated
// ±20% window.
func TestDriftBootstrapGate(t *testing.T) {
	if testing.Short() {
		t.Skip("drift harness bootstraps; skipping in -short")
	}
	rep, err := RunDrift(DefaultDriftConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	t.Logf("\n%s", buf.String())

	if !rep.Gate() {
		t.Fatalf("drift gate failed")
	}
	if rep.SkippedSpans != 0 {
		t.Errorf("SkippedSpans = %d, want 0 (every top-level op span should carry a prediction)", rep.SkippedSpans)
	}
	kinds := map[string]DriftKind{}
	for _, k := range rep.Kinds {
		kinds[k.Kind] = k
	}
	for _, want := range []string{"Mult", "Rescale", "Conjugate", "RotateHoisted"} {
		if _, ok := kinds[want]; !ok {
			t.Errorf("kind %q missing from drift report", want)
		}
	}
	// No library code composes the unfused pair any more: every product of
	// the bootstrap is a merged Mult.
	if k, ok := kinds["MulRelin"]; ok {
		t.Errorf("%d top-level MulRelin spans in a bootstrap, want none", k.Count)
	}
	for _, kind := range []string{"Mult", "Rescale"} {
		k := kinds[kind]
		if k.TolPct != 20 {
			t.Errorf("%s: TolPct = %v, want 20 (calibrated gate)", kind, k.TolPct)
		}
		if !k.WithinTol {
			t.Errorf("%s: delta %+.1f%% outside the calibrated ±20%% window", kind, k.DeltaPct)
		}
	}
	probes := DefaultDriftConfig().MultProbes
	if k := kinds["RotateHoisted"]; k.Count != probes {
		t.Errorf("RotateHoisted count = %d, want %d probes", k.Count, probes)
	}
	// Mult: the probes, plus per EvalMod half the sine polynomial's
	// non-scalar products and one per double-angle step.
	bp := bootstrap.DefaultParameters()
	sineMults, _ := mathutil.NewPSPlan(bp.SineDegree).Cost()
	if k, want := kinds["Mult"], probes+2*(sineMults+bp.DoubleAngle); k.Count != want {
		t.Errorf("Mult count = %d, want %d (probes + 2 EvalMod halves)", k.Count, want)
	}
	// The model's limb-transform count must match the kernel counters
	// exactly for the compute-structured kinds: any mismatch means span
	// windows leak work across op boundaries.
	for _, k := range rep.Kinds {
		if k.PredNTT != k.MeasNTT {
			t.Errorf("%s: NTT count predicted %d != measured %d", k.Kind, k.PredNTT, k.MeasNTT)
		}
	}
	if k := kinds["RotateHoisted"]; k.TolPct != 30 || !k.WithinTol {
		t.Errorf("RotateHoisted: delta %+.1f%% against ±%v%%, want gated at ±30%% and inside it", k.DeltaPct, k.TolPct)
	}

	// The report must round-trip as JSON for the CI artifact.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(blob), `"kind":"Mult"`) {
		t.Errorf("JSON report missing Mult row: %s", blob)
	}
}
