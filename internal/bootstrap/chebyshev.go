// Package bootstrap implements CKKS bootstrapping (Algorithm 4 of the
// paper): ModRaise, the homomorphic DFT pair CoeffToSlot / SlotToCoeff
// evaluated as fftIter plaintext matrix–vector products, and the
// approximate modular reduction EvalMod built from a Chebyshev sine
// approximation with double-angle refinement.
//
// The package exists to ground the simulator's bootstrapping cost model in
// a working implementation, and to let the repository check functionally
// that the MAD optimizations leave bootstrapping semantics unchanged.
package bootstrap

import "math"

// ChebyshevCoeffs returns the degree-`degree` Chebyshev interpolation
// coefficients of f on [-1, 1] (Chebyshev–Gauss nodes), so that
// f(x) ≈ Σ_k c_k·T_k(x).
func ChebyshevCoeffs(f func(float64) float64, degree int) []float64 {
	n := degree + 1
	fv := make([]float64, n)
	for j := 0; j < n; j++ {
		fv[j] = f(math.Cos(math.Pi * (float64(j) + 0.5) / float64(n)))
	}
	coeffs := make([]float64, n)
	for k := 0; k < n; k++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += fv[j] * math.Cos(math.Pi*float64(k)*(float64(j)+0.5)/float64(n))
		}
		coeffs[k] = 2 * sum / float64(n)
	}
	coeffs[0] /= 2
	return coeffs
}

// EvalChebyshevPlain evaluates the Chebyshev expansion at a plain float,
// for reference and tests (Clenshaw recurrence).
func EvalChebyshevPlain(coeffs []float64, x float64) float64 {
	var b1, b2 float64
	for k := len(coeffs) - 1; k >= 1; k-- {
		b1, b2 = 2*x*b1-b2+coeffs[k], b1
	}
	return x*b1 - b2 + coeffs[0]
}
