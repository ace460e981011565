package ckks

import (
	"fmt"
	"math"

	"repro/internal/mathutil"
)

// Homomorphic polynomial evaluation: the one executor of the
// Paterson–Stockmeyer schedule mathutil.PSPlan describes. HELR's sigmoid
// and similar low-degree activation polynomials come with monomial
// coefficients, simple and exact at those degrees; bootstrapping's EvalMod
// comes with Chebyshev coefficients, which are better conditioned for the
// high-degree sine. The schedule is the same for both; the basis enters
// in exactly two places, power and split.

// Basis names the family a polynomial's coefficients are written in.
type Basis int

const (
	// Monomial coefficients: p(x) = Σ c_k·xᵏ.
	Monomial Basis = iota
	// Chebyshev coefficients: p(x) = Σ c_k·T_k(x), slot values in [-1, 1].
	Chebyshev
)

// polyEval carries one evaluation: the schedule and the basis elements
// b_k (xᵏ or T_k(x)) built so far.
type polyEval struct {
	ev    *Evaluator
	basis Basis
	plan  mathutil.PSPlan
	b     []*Ciphertext
}

// EvalPolynomial evaluates Σ c_k·b_k over the slots of ct, b_k = xᵏ or
// T_k(x) as basis says. The slot values should be O(1) in magnitude (the
// usual CKKS regime; within [-1, 1] for Chebyshev) so intermediate basis
// elements stay encodable. The result lands near the input scale, exactly
// the plan's depth below the input level (≈ 2·log2(degree)).
func (ev *Evaluator) EvalPolynomial(ct *Ciphertext, basis Basis, coeffs []float64) *Ciphertext {
	// Trim negligible high-order terms.
	d := len(coeffs) - 1
	for d > 0 && math.Abs(coeffs[d]) < 1e-14 {
		d--
	}
	coeffs = coeffs[:d+1]
	if d == 0 {
		out := ev.MulByConstReal(ct, 0, 1)
		return ev.AddConstReal(out, coeffs[0])
	}
	plan := mathutil.NewPSPlan(d)
	_, depth := plan.Cost()
	if ct.Level < depth {
		panic(fmt.Sprintf("ckks: EvalPolynomial level (got=%d, want>=%d for degree %d)", ct.Level, depth, d))
	}
	pe := &polyEval{ev: ev, basis: basis, plan: plan, b: make([]*Ciphertext, d+1)}
	pe.b[1] = ct
	for _, s := range plan.Ladder {
		pe.b[s.K] = pe.power(s.I, s.J)
	}
	return pe.evalRecurse(coeffs, ct.Level-depth, ct.Scale)
}

// power builds b_{i+j} from b_i and b_j, rescaled once: xⁱ·xʲ, or
// 2·T_i·T_j − T_{i−j} with T_0 = 1. The product evaluates at the lower
// of the two levels, so neither operand is truncated first, and the
// Chebyshev correction is applied to the raised product, before its one
// division by P·q_ℓ.
func (pe *polyEval) power(i, j int) *Ciphertext {
	ev := pe.ev
	switch {
	case pe.basis != Chebyshev:
		return ev.Mul(pe.b[i], pe.b[j])
	case i == j:
		return ev.DoubleAngle(pe.b[i])
	}
	return ev.mulRescale(pe.b[i], pe.b[j], func(r raisedCt) {
		ev.doubleRaised(r)
		// Scale-align T_{i−j} up to the product scale with an exact constant.
		td := pe.b[i-j]
		ev.subScaledRaised(r, td, r.scale/td.Scale)
	})
}

// split divides p = b_g·q + r. Monomials split verbatim: q is c_g … c_d
// and r is c_0 … c_{g−1}. In the Chebyshev basis T_g·T_j = (T_{g+j} +
// T_{g−j})/2, so q_0 = c_g, q_j = 2·c_{g+j}, and each c_{g+j} folds down
// onto r_{g−j}.
func (pe *polyEval) split(coeffs []float64, g int) (q, r []float64) {
	if pe.basis != Chebyshev {
		return coeffs[g:], coeffs[:g]
	}
	q = append([]float64(nil), coeffs[g:]...)
	r = append([]float64(nil), coeffs[:g]...)
	for j := 1; j < len(q); j++ {
		q[j] *= 2
		r[g-j] -= coeffs[g+j]
	}
	return q, r
}

// evalRecurse evaluates the polynomial so the result lands at exactly
// (level, ≈scale): q one level up, at the scale that brings its product
// with b_g back to scale after the Rescale, then r at the product's level.
func (pe *polyEval) evalRecurse(coeffs []float64, level int, scale float64) *Ciphertext {
	ev := pe.ev
	d := len(coeffs) - 1
	if d < pe.plan.Baby {
		return pe.evalLeaf(coeffs, level, scale)
	}
	g := pe.plan.Giant(d)
	q, r := pe.split(coeffs, g)
	bg := pe.b[g]
	qHat := pe.evalRecurse(q, level+1, scale*float64(ev.params.Q()[level+1])/bg.Scale)
	prod := ev.Mul(qHat, bg)
	return ev.Add(prod, pe.evalRecurse(r, level, prod.Scale))
}

// evalLeaf combines baby elements with plaintext constants, landing at
// exactly (level, ≈scale) after one Rescale. Each b_k is read through a
// limb view at level+1, never copied: the first term allocates the
// accumulator and every later one is a fused acc += c_k·b_k pass.
func (pe *polyEval) evalLeaf(coeffs []float64, level int, scale float64) *Ciphertext {
	ev := pe.ev
	target := scale * float64(ev.params.Q()[level+1])
	var acc *Ciphertext
	for k := 1; k < len(coeffs); k++ {
		if math.Abs(coeffs[k]) < 1e-14 {
			continue
		}
		bk := pe.b[k].atLevel(level + 1)
		if acc == nil {
			acc = ev.MulByConstReal(bk, coeffs[k], target/bk.Scale)
		} else {
			ev.mulByConstThenAdd(bk, coeffs[k], target/bk.Scale, acc)
		}
	}
	if acc == nil {
		// All non-constant terms vanished: produce a zero at the target.
		acc = ev.MulByConstReal(pe.b[1].atLevel(level+1), 0, 1)
		acc.Scale = target
	}
	ev.addConst(acc, coeffs[0])
	return ev.Rescale(acc)
}

// SigmoidCoeffs returns the HELR degree-7 least-squares approximation of
// the logistic sigmoid on [-8, 8] (Han et al. [18], Table 1 of that
// paper): σ(x) ≈ 0.5 + 1.73496·(x/8) − 4.19407·(x/8)³ + 5.43402·(x/8)⁵
// − 2.50739·(x/8)⁷.
func SigmoidCoeffs() []float64 {
	scale := func(c float64, k int) float64 { return c / math.Pow(8, float64(k)) }
	return []float64{
		0.5,
		scale(1.73496, 1),
		0,
		scale(-4.19407, 3),
		0,
		scale(5.43402, 5),
		0,
		scale(-2.50739, 7),
	}
}
