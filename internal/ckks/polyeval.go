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

// polyEval carries one evaluation of a batch of inputs: the schedule, and
// per input the basis elements b_k (xᵏ or T_k(x)) built so far.
type polyEval struct {
	ev    *Evaluator
	basis Basis
	plan  mathutil.PSPlan
	b     [][]*Ciphertext // [input][k]
}

// psNode is one polynomial of the recursion, the same for every input: a
// leaf (g = 0), a plain combination of baby elements landing at level,
// or a split p = b_g·q + r with q landing one level up and r at level,
// whose product q̂·b_g runs at level+1. Per input it keeps the scale the
// polynomial lands at (0 until known), the split's product and the
// result.
type psNode struct {
	coeffs    []float64
	level, g  int
	q, r, up  *psNode // up: the split this node is the q or the r of
	scale     []float64
	prod, out []*Ciphertext
}

// EvalPolynomial evaluates Σ c_k·b_k over the slots of every ciphertext
// given, b_k = xᵏ or T_k(x) as basis says, and returns the results in
// order. The slot values should be O(1) in magnitude (the usual CKKS
// regime; within [-1, 1] for Chebyshev) so intermediate basis elements
// stay encodable. Each result lands near its input's scale, exactly the
// plan's depth below the input level (≈ 2·log2(degree)).
//
// The inputs must share a level and a scale; a mismatch panics before
// any work. They walk the schedule together, level by level from the
// input level down: at each level every product that is ready — the
// ladder steps of that depth and the splits whose product runs there, of
// every input — is one batched Mult, whose products share their passes
// over the relinearization key (mulRescale). Each product's words are
// those it has alone, so every result is, bit for bit, what the input
// would give on its own.
func (ev *Evaluator) EvalPolynomial(basis Basis, coeffs []float64, cts ...*Ciphertext) []*Ciphertext {
	if len(cts) == 0 {
		return nil
	}
	for _, ct := range cts[1:] {
		if ct.Level != cts[0].Level {
			panic(fmt.Sprintf("ckks: EvalPolynomial input level mismatch (got=%d, want=%d)", ct.Level, cts[0].Level))
		}
		if !sameScale(cts[0].Scale, ct.Scale) {
			panic(fmt.Sprintf("ckks: EvalPolynomial input scale mismatch (got=2^%.2f, want=2^%.2f)", log2(ct.Scale), log2(cts[0].Scale)))
		}
	}
	// The declared degree sets the plan, however small its top terms: the
	// schedule is the one mathutil.PSPlan, and so BootPlan, prices.
	d := len(coeffs) - 1
	out := make([]*Ciphertext, len(cts))
	if d == 0 {
		for x, ct := range cts {
			out[x] = ev.MulByConstReal(ct, 0, 1)
			ev.addConst(out[x], coeffs[0])
		}
		return out
	}
	plan := mathutil.NewPSPlan(d)
	_, depth := plan.Cost()
	top := cts[0].Level
	if top < depth {
		panic(fmt.Sprintf("ckks: EvalPolynomial level (got=%d, want>=%d for degree %d)", top, depth, d))
	}
	pe := &polyEval{ev: ev, basis: basis, plan: plan, b: make([][]*Ciphertext, len(cts))}
	for x, ct := range cts {
		pe.b[x] = make([]*Ciphertext, d+1)
		pe.b[x][1] = ct
	}

	// The products by the level they run at: each ladder step at the
	// lower of its operands' levels, each split one above its result.
	ladder := make([][]mathutil.PSStep, top+1)
	sits := make([]int, d+1) // the level b_k lands at
	sits[1] = top
	for _, s := range plan.Ladder {
		l := min(sits[s.I], sits[s.J])
		ladder[l] = append(ladder[l], s)
		sits[s.K] = l - 1
	}
	splits := make([][]*psNode, top+1)
	root := pe.node(coeffs, top-depth, nil, splits)
	for x, ct := range cts {
		root.scale[x] = ct.Scale
	}

	for l := top; l > root.level; l-- {
		var pairs []mulPair
		var dst []**Ciphertext
		var consumed []*Ciphertext
		for _, s := range ladder[l] {
			for x := range cts {
				pairs = append(pairs, pe.power(x, s))
				dst = append(dst, &pe.b[x][s.K])
			}
		}
		for _, n := range splits[l] {
			for x := range cts {
				q := pe.result(n.q, x)
				pairs = append(pairs, mulPair{ct0: q, ct1: pe.b[x][n.g]})
				dst = append(dst, &n.prod[x])
				consumed = append(consumed, q)
			}
		}
		for k, ct := range ev.mulRescale(pairs) {
			*dst[k] = ct
		}
		ev.Release(consumed...)
	}
	for x := range cts {
		out[x] = pe.result(root, x)
		// The basis elements the walk built; b_1 is the caller's input.
		ev.Release(pe.b[x][2:]...)
	}
	return out
}

// node builds the recursion under a polynomial landing at level and files
// each split under the level its product runs at.
func (pe *polyEval) node(coeffs []float64, level int, up *psNode, splits [][]*psNode) *psNode {
	k := len(pe.b)
	n := &psNode{coeffs: coeffs, level: level, up: up,
		scale: make([]float64, k), prod: make([]*Ciphertext, k), out: make([]*Ciphertext, k)}
	if d := len(coeffs) - 1; d >= pe.plan.Baby {
		n.g = pe.plan.Giant(d)
		q, r := pe.split(coeffs, n.g)
		n.q = pe.node(q, level+1, n, splits)
		n.r = pe.node(r, level, n, splits)
		splits[level+1] = append(splits[level+1], n)
	}
	return n
}

// power is the product that builds b_{i+j} from b_i and b_j for input x,
// rescaled once: xⁱ·xʲ, or 2·T_i·T_j − T_{i−j} with T_0 = 1. The product
// evaluates at the lower of the two levels, so neither operand is
// truncated first, and the Chebyshev correction is applied to the raised
// product, before its one division by P·q_ℓ.
func (pe *polyEval) power(x int, s mathutil.PSStep) mulPair {
	ev, b := pe.ev, pe.b[x]
	switch {
	case pe.basis != Chebyshev:
		return mulPair{ct0: b[s.I], ct1: b[s.J]}
	case s.I == s.J:
		return mulPair{ct0: b[s.I], ct1: b[s.I], middle: ev.doubleMinusOne}
	}
	td := b[s.I-s.J]
	return mulPair{ct0: b[s.I], ct1: b[s.J], middle: func(r raisedCt) {
		ev.doubleRaised(r)
		// Scale-align T_{i−j} up to the product scale with an exact constant.
		ev.subScaledRaised(r, td, r.scale/td.Scale)
	}}
}

// scale returns the scale n's result lands at for input x: the root's is
// the input's; q lands at the scale that brings its product with b_g back
// to the split's after the Rescale, and r at that product's scale.
func (pe *polyEval) scale(n *psNode, x int) float64 {
	if n.scale[x] == 0 {
		p := n.up
		bg, q := pe.b[x][p.g], float64(pe.ev.params.Q()[p.level+1])
		if n == p.q {
			n.scale[x] = pe.scale(p, x) * q / bg.Scale
		} else {
			n.scale[x] = productScale(pe.resultScale(p.q, x), bg.Scale, q)
		}
	}
	return n.scale[x]
}

// resultScale is the scale of n's result for input x, known before a
// split's product runs: a split's result carries its product's scale.
func (pe *polyEval) resultScale(n *psNode, x int) float64 {
	if n.g == 0 {
		return pe.result(n, x).Scale
	}
	return productScale(pe.resultScale(n.q, x), pe.b[x][n.g].Scale, float64(pe.ev.params.Q()[n.level+1]))
}

// result returns n's result for input x: a leaf is evaluated on first
// use; a split's is its product plus r's result, once the walk has run
// the product, and the join releases both. Every result but the root's
// is read once, by its parent's product or join, which releases it; its
// scale stays readable.
func (pe *polyEval) result(n *psNode, x int) *Ciphertext {
	if n.out[x] == nil {
		if n.g == 0 {
			n.out[x] = pe.evalLeaf(x, n.coeffs, n.level, pe.scale(n, x))
		} else {
			r := pe.result(n.r, x)
			n.out[x] = pe.ev.Add(n.prod[x], r)
			pe.ev.Release(n.prod[x], r)
		}
	}
	return n.out[x]
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

// evalLeaf combines input x's baby elements with plaintext constants,
// landing at exactly (level, ≈scale) after one Rescale. Each b_k is read
// through a limb view at level+1, never copied: the first term draws the
// accumulator, every later one is a fused acc += c_k·b_k pass, and the
// accumulator is released once rescaled.
func (pe *polyEval) evalLeaf(x int, coeffs []float64, level int, scale float64) *Ciphertext {
	ev, b := pe.ev, pe.b[x]
	target := scale * float64(ev.params.Q()[level+1])
	var acc *Ciphertext
	for k := 1; k < len(coeffs); k++ {
		if math.Abs(coeffs[k]) < 1e-14 {
			continue
		}
		bk := b[k].atLevel(level + 1)
		if acc == nil {
			acc = ev.MulByConstReal(bk, coeffs[k], target/bk.Scale)
		} else {
			ev.mulByConstThenAdd(bk, coeffs[k], target/bk.Scale, acc)
		}
	}
	if acc == nil {
		// All non-constant terms vanished: produce a zero at the target.
		acc = ev.MulByConstReal(b[1].atLevel(level+1), 0, 1)
		acc.Scale = target
	}
	ev.addConst(acc, coeffs[0])
	defer ev.Release(acc)
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
