package bootstrap

import "math"

// The EvalMod range bound K: after ModRaise, the plaintext is
// Δ·m + q₀·k where each coefficient of k gathers the q₀-overflows of
// c₀ + c₁·s. With a ternary secret of Hamming weight h, k_j behaves like
// a sum of h+1 independent uniform(±½) terms, so Var[k_j] ≈ (h+1)/12 and
// a subgaussian tail bound over all 2N coefficients gives the K that
// fails with probability below 2^-κ. This is how sparse secrets buy a
// low-degree sine approximation (§2 of the bootstrapping literature the
// paper builds on; Parameters.K must be at least this).

// RequiredK returns the smallest K such that P[‖k‖∞ ≥ K] < 2^-kappa for
// a weight-h ternary secret in a degree-2^logN ring.
func RequiredK(h, logN, kappa int) int {
	variance := float64(h+1) / 12
	// Union bound over 2N coefficients: need
	// 2·2N·exp(-K²/(2σ²)) < 2^-κ  ⇒  K > σ·sqrt(2·ln(2^(κ+1)·2N)).
	lnBound := float64(kappa+1+logN+1) * math.Ln2
	k := int(math.Ceil(math.Sqrt(variance) * math.Sqrt(2*lnBound)))
	// The subgaussian tail is loose for small h: never exceed the hard
	// support bound.
	if wc := WorstCaseK(h); k > wc {
		k = wc
	}
	return k
}

// WorstCaseK returns the deterministic bound ⌈(h+3)/2⌉: the overflow can
// never exceed half the ℓ1 norm of (1, s) plus rounding. Parameters built
// with this K can never range-fail, at the cost of a wider (higher degree
// or more double-angle steps) sine approximation.
func WorstCaseK(h int) int { return (h + 3) / 2 }
