package mathutil

// PSPlan is the Paterson–Stockmeyer baby-step/giant-step schedule for a
// polynomial of degree d written in a basis b_0 = 1, b_1 = x, b_2, … with
// a product rule (monomials: b_{i+j} = b_i·b_j; Chebyshev: T_{i+j} =
// 2·T_i·T_j − T_{i−j}): log depth, ~2√d ciphertext multiplications. It is
// a pure description with one home. The evaluator executes it
// (ckks.EvalPolynomial), the bootstrapper budgets EvalMod's levels from
// its depth and the simulator prices its multiplications
// (simfhe.Params.EvalModDepth, Ctx.BootstrapTree), so the three cannot
// disagree about the schedule.
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

// Cost walks the schedule and returns the ciphertext–ciphertext
// multiplications it performs and the levels it consumes: the ladder (one
// multiplication per step, its deepest element) plus the recursion below
// it (one multiplication per split).
func (p PSPlan) Cost() (mults, depth int) {
	if p.Degree <= 0 {
		return 0, 0
	}
	below := make([]int, p.Degree+1) // levels below the input at which b_k lands
	for _, s := range p.Ladder {
		below[s.K] = max(below[s.I], below[s.J]) + 1
		depth = max(depth, below[s.K])
	}
	splits, levels := p.recursion(p.Degree)
	return len(p.Ladder) + splits, depth + levels
}

// recursion counts the splits p = b_g·q + r under a polynomial of the
// given degree and the levels they span: a leaf rescales once; q is
// evaluated one level above its product with b_g, r at the product's level.
func (p PSPlan) recursion(degree int) (splits, levels int) {
	if degree < p.Baby {
		return 0, 1
	}
	g := p.Giant(degree)
	qs, ql := p.recursion(degree - g)
	rs, rl := p.recursion(g - 1)
	return 1 + qs + rs, max(1+ql, rl)
}
