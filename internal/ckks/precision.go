package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// PrecisionStats summarizes the slot-wise error between a computed result
// and its expected values, the way FHE libraries report accuracy: best
// and worst slots, mean, median, and the equivalent bits of precision
// (−log2 of the error).
type PrecisionStats struct {
	MaxErr    float64
	MinErr    float64
	MeanErr   float64
	MedianErr float64

	MinPrecisionBits    float64 // bits of the *worst* slot
	MedianPrecisionBits float64
}

// Precision compares want and got slot-wise (shorter slice bounds the
// comparison) and returns the statistics.
func Precision(want, got []complex128) PrecisionStats {
	n := min(len(want), len(got))
	if n == 0 {
		return PrecisionStats{}
	}
	errs := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		errs[i] = cmplx.Abs(want[i] - got[i])
		sum += errs[i]
	}
	sort.Float64s(errs)
	s := PrecisionStats{
		MaxErr:    errs[n-1],
		MinErr:    errs[0],
		MeanErr:   sum / float64(n),
		MedianErr: errs[n/2],
	}
	s.MinPrecisionBits = precisionBits(s.MaxErr)
	s.MedianPrecisionBits = precisionBits(s.MedianErr)
	return s
}

func precisionBits(err float64) float64 {
	if err <= 0 {
		return 64 // exact to the measurement's resolution
	}
	return math.Max(0, -math.Log2(err))
}

func (s PrecisionStats) String() string {
	return fmt.Sprintf("precision{worst %.1f bits (err %.3g), median %.1f bits, mean err %.3g}",
		s.MinPrecisionBits, s.MaxErr, s.MedianPrecisionBits, s.MeanErr)
}
