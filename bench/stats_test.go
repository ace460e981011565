package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileRule(t *testing.T) {
	// 100 samples leave exactly ten beyond the p90.
	if got, err := percentile(ramp(100), 0.90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(ramp(99), 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was not refused")
	}
	// The rule holds for the median too.
	if got, err := percentile(ramp(20), 0.50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := percentile(ramp(19), 0.50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Error("percentile of no samples was not refused")
	}
	// -quick falls back to the largest sample, a full run never does.
	if got, err := percentileOrMax(ramp(5), 0.90, true); err != nil || got != 5 {
		t.Errorf("quick p90 of 1..5 = %v, %v; want 5", got, err)
	}
	if _, err := percentileOrMax(ramp(5), 0.90, false); err == nil {
		t.Error("a full run reported a p90 of 5 samples")
	}
}

func TestPercentileDoesNotReorderItsInput(t *testing.T) {
	v := []float64{3, 1, 2}
	median(v)
	percentileOrMax(v, 0.5, true)
	quartileSpread(v)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("input reordered: %v", v)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are statistics.quantiles(v, n=4) of Python 3.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q3, md float64
	}{
		{ramp(10), 2.75, 8.25, 5.5},
		{[]float64{10, 12, 11, 30, 13, 12, 11, 10, 12, 14}, 10.75, 13.25, 12},
		{[]float64{5, 9}, 4, 10, 7},
		{[]float64{1, 2, 4}, 1, 4, 2},
	} {
		want := (c.q3 - c.q1) / c.md
		if got := quartileSpread(c.in); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.in, got, want)
		}
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestBoundComparatorKnowsTheDirection(t *testing.T) {
	lower := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d         metricDef
		base, cur float64
		worse     float64
		regressed bool
	}{
		{lower, 100, 109, 0.09, false},
		{lower, 100, 111, 0.11, true},
		{lower, 100, 50, -0.50, false}, // faster is never a regression
		{higher, 100, 91, 0.09, false},
		{higher, 100, 89, 0.11, true},
		{higher, 100, 200, -1.00, false},
		{higher, 20, 19.5, 0.025, false},
	} {
		if got := c.d.worseBy(c.base, c.cur); math.Abs(got-c.worse) > 1e-12 {
			t.Errorf("%s: worseBy(%v, %v) = %v, want %v", c.d.Name, c.base, c.cur, got, c.worse)
		}
		if got := c.d.regressed(c.base, c.cur); got != c.regressed {
			t.Errorf("%s: regressed(%v, %v) = %v, want %v", c.d.Name, c.base, c.cur, got, c.regressed)
		}
	}
	if got := lower.worseBy(0, 0); got != 0 {
		t.Errorf("worseBy(0, 0) = %v, want 0", got)
	}
	if !lower.regressed(0, 1) {
		t.Error("a metric that left 0 is not a regression")
	}
}

func TestReportWantsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "MB"}}
	all := []sample{{}, {failed: true}, {}}
	r, err := report(defs, map[string]float64{"a": 1, "b": 2}, all)
	if err != nil || r.Correct || r.Attempted != 3 || r.Failed != 1 || r.Metrics["b"] != (metricValue{2, "MB"}) {
		t.Errorf("report = %+v, %v", r, err)
	}
	if _, err := report(defs, map[string]float64{"a": 1}, all); err == nil {
		t.Error("a declared metric that was not measured was accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, all); err == nil {
		t.Error("a measured metric that is not declared was accepted")
	}
}
