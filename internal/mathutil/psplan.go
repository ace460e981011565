package mathutil

import "slices"

// PSPlan is the Paterson–Stockmeyer baby-step/giant-step schedule for a
// polynomial of degree d written in a basis b_0 = 1, b_1 = x, b_2, … with
// a product rule (monomials: b_{i+j} = b_i·b_j; Chebyshev: T_{i+j} =
// 2·T_i·T_j − T_{i−j}): log depth, ~2√d ciphertext multiplications. It is
// a pure description with one home. The evaluator executes it
// (ckks.EvalPolynomial), and BootPlan files its Products as EvalMod's
// batches for the bootstrapper and the simulator alike.
type PSPlan struct {
	Degree int
	// Baby is the baby-step bound M = 2^⌈log₂√(d+1)⌉: a polynomial of
	// degree < M is a leaf, a plain linear combination of b_1 … b_{M−1}.
	Baby int
	// Ladder lists the basis elements to build, in evaluation order: b_2 …
	// b_min(M,d) by halving the index, then the giants b_2M, b_4M, … ≤ d by
	// doubling. (M > d only for d = 1, whose single leaf reads b_1 alone.)
	Ladder []PSStep
}

// PSStep builds b_K from b_I and b_J, I + J = K and I − J ∈ {0, 1}, one
// multiplication and one level below the lower of the two.
type PSStep struct{ K, I, J int }

// NewPSPlan returns the schedule for the given degree. A constant
// (degree ≤ 0) has an empty ladder and costs nothing.
func NewPSPlan(degree int) PSPlan {
	m := 1
	for m*m < degree+1 {
		m <<= 1
	}
	p := PSPlan{Degree: degree, Baby: m}
	for k := 2; k <= min(m, degree); k++ {
		p.Ladder = append(p.Ladder, PSStep{K: k, I: (k + 1) / 2, J: k / 2})
	}
	for g := p.Baby; 2*g <= degree; g *= 2 {
		p.Ladder = append(p.Ladder, PSStep{K: 2 * g, I: g, J: g})
	}
	return p
}

// Giant returns the largest giant b_g, g = M·2^i, of index at most degree
// (≥ M): where a polynomial of that degree splits as p = b_g·q + r with
// deg q = degree − g and deg r = g − 1.
func (p PSPlan) Giant(degree int) int {
	g := p.Baby
	for 2*g <= degree {
		g *= 2
	}
	return g
}

// Cost returns the ciphertext–ciphertext multiplications the schedule
// performs and the levels it consumes.
func (p PSPlan) Cost() (mults, depth int) {
	n := p.Products()
	for _, k := range n {
		mults += k
	}
	return mults, len(n)
}

// Products returns the multiplications by level: n[i] run i levels below
// the input, len(n) is the depth. A ladder step runs at its deeper
// operand's level; the recursion (split) runs below the ladder.
func (p PSPlan) Products() []int {
	if p.Degree <= 0 {
		return nil
	}
	below := make([]int, p.Degree+1) // levels below the input at which b_k lands
	for _, s := range p.Ladder {
		below[s.K] = max(below[s.I], below[s.J]) + 1
	}
	up := make([]int, p.Degree+2)
	n := make([]int, slices.Max(below)+p.split(p.Degree, 0, up))
	for _, s := range p.Ladder {
		n[below[s.K]-1]++
	}
	for b, k := range up {
		if k > 0 {
			n[len(n)-b] += k
		}
	}
	return n
}

// split walks a polynomial landing b levels above the result, counts each
// split p = b_g·q + r into up[level of its product above the result] and
// returns the levels the walk spans: a leaf rescales once, q lands one
// level above its product with b_g, r at the product's level.
func (p PSPlan) split(degree, b int, up []int) int {
	if degree < p.Baby {
		return b + 1
	}
	g := p.Giant(degree)
	up[b+1]++
	return max(p.split(degree-g, b+1, up), p.split(g-1, b, up))
}
