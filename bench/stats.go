package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minBeyond is the percentile rule of the choosing-metrics guide: a
// percentile is reported only when at least this many samples lie beyond
// it, so one slow op cannot set the number.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of the samples and
// refuses when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples", q)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.2f of %d samples has %d beyond it, want >= %d", q, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// percentileOrMax is percentile for -quick runs, whose tiny op counts the
// rule always refuses: it falls back to the largest sample.
func percentileOrMax(samples []float64, q float64, quick bool) (float64, error) {
	v, err := percentile(samples, q)
	if err != nil && quick && len(samples) > 0 {
		return slices.Max(samples), nil
	}
	return v, err
}

// median averages the two middle samples of an even count; it is used for
// medians of runs and of probe repetitions, where no rule on the tail
// applies. It returns 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartileSpread is the driver's steadiness measure: the distance between
// the first and third quartile as a share of the median, with quartiles
// as Python's statistics.quantiles(values, n=4) gives them.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	quartile := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4 // outside [0, 4] it extrapolates, as Python does
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline by which the metric may get worse; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// worseBy returns by what share of base the value got worse: positive
// when cur is worse than base in the metric's direction, negative when it
// is better.
func (d metricDef) worseBy(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	change := (cur - base) / math.Abs(base)
	if d.Better == "higher" {
		return -change
	}
	return change
}

// regressed reports whether cur is worse than base by more than the bound.
func (d metricDef) regressed(base, cur float64) bool {
	return d.worseBy(base, cur) > d.Bound
}
