package mathutil

import (
	"slices"
	"sync"
)

// BootPlan is the one schedule of CKKS bootstrapping (Algorithm 4), pure
// and key-free: the bootstrapper builds its level budget and transforms
// from it, and the simulator prices it node for node (simfhe.Ctx.PlanTree)
// at any ring degree.
type BootPlan struct {
	BootShape
	LogSlots, MaxLevel       int // the DFTs' log2 slot count; the level ModRaise lifts to
	RaiseFrom                int // 0: ModRaise lifts the one limb q_0 of an exhausted ciphertext
	CoeffToSlot, SlotToCoeff []DFTGroup
	EvalMod                  []MultBatch // both halves' batches, top first: the sine's PSPlan.Products, then each double angle
	LevelAfter               int         // the output level; negative when the chain is too short
}

// BootShape is a bootstrap's shape beyond its chain.
type BootShape struct {
	CtSIter, StCIter int // the paper's fftIter: DFT groups of CoeffToSlot and of SlotToCoeff
	SineDegree       int // Chebyshev degree of EvalMod's scaled cosine
	DoubleAngle      int // double-angle refinements r after it
}

// DFTGroup applies butterfly stages [From, To) of the special FFT.
type DFTGroup struct {
	MatVec
	From, To int
}

// MultBatch is one batched ciphertext Mult: Fanout products at Level (its
// ckks.Mult span's ct.level and op.fanout).
type MultBatch struct{ Level, Fanout int }

// NewBootPlan schedules a bootstrap of shape s over 2^logSlots slots from
// maxLevel down: each DFT group and EvalMod level consumes one level.
func NewBootPlan(logSlots, maxLevel int, s BootShape) BootPlan {
	cts, l := dftGroups(logSlots, s.CtSIter, true, maxLevel)
	p := BootPlan{BootShape: s, LogSlots: logSlots, MaxLevel: maxLevel, CoeffToSlot: cts}
	counts := NewPSPlan(s.SineDegree).Products()
	for range s.DoubleAngle {
		counts = append(counts, 1)
	}
	for i, k := range counts {
		if k > 0 {
			p.EvalMod = append(p.EvalMod, MultBatch{Level: l - i, Fanout: 2 * k})
		}
	}
	p.SlotToCoeff, p.LevelAfter = dftGroups(logSlots, s.StCIter, false, l-len(counts))
	return p
}

// dftCache holds each factorization's groups from level 0 down; plans share their Diags (read-only).
var dftCache sync.Map

// dftGroups returns the iter CoeffToSlot (inverse) or SlotToCoeff groups
// over n = 2^logSlots slots, the first at level top, and the level after
// them. The stages split as evenly as possible; a group of k = to − from
// stages holds the diagonals {j·s mod n : |j| < 2^k}, s = n >> to
// (CoeffToSlot) or 2^from: 2^k of them where the set wraps around n (the
// first CoeffToSlot and the last SlotToCoeff group), else 2^(k+1) − 1.
func dftGroups(logSlots, iter int, inverse bool, top int) ([]DFTGroup, int) {
	key := [3]any{logSlots, iter, inverse}
	cached, ok := dftCache.Load(key)
	if !ok {
		n := 1 << logSlots
		var gs []DFTGroup
		for g := range iter {
			from, to := g*logSlots/iter, (g+1)*logSlots/iter
			stride := 1 << from
			if inverse {
				stride = n >> to
			}
			var idx []int
			for j := 1 - 1<<(to-from); j < 1<<(to-from); j++ {
				idx = append(idx, (j*stride%n+n)%n)
			}
			slices.Sort(idx)
			gs = append(gs, DFTGroup{NewMatVec(-g, slices.Compact(idx), n, 0), from, to})
		}
		cached, _ = dftCache.LoadOrStore(key, gs)
	}
	gs := slices.Clone(cached.([]DFTGroup))
	for g := range gs {
		gs[g].Level += top
	}
	return gs, top - iter
}

// giantStepWeight is the price of one keyed giant step (ModDown, ModUp,
// key product and the σ(u) pass) in keyed baby steps (key product only),
// the exchange rate ChooseN1 minimises with; DESIGN.md "Linear transform
// schedule" has its measurement, and the choice is flat for weights 3–8.
const giantStepWeight = 4

// MatVec is one plaintext matrix–vector product (PtMatVecMult) as a
// schedule: its level, diagonal indices (ascending, in [0, n)) and split.
// Diagonal d is baby step d mod N1 of giant multiple ⌊d/N1⌋; multiples
// 1 … Up form the Horner chain rotating by +N1, the rest the −N1 chain (Up
// is n when N1 does not divide n). Babies counts the distinct non-zero
// baby steps, Giants the Horner steps of both chains: one keyed rotation
// each.
type MatVec struct {
	Level, N1, Up, Babies, Giants int
	Diags                         []int
}

// NewMatVec splits the sorted, distinct diagonal indices diags of an
// n-slot product at n1, or at ChooseN1's split when n1 ≤ 0.
func NewMatVec(level int, diags []int, n, n1 int) MatVec {
	if n1 <= 0 {
		n1 = ChooseN1(diags, n)
	}
	m := MatVec{Level: level, Diags: diags, N1: n1, Up: n}
	var ms []int // distinct non-zero giant multiples, ascending
	seen := make([]bool, n1)
	for _, d := range diags {
		if i := d % n1; i != 0 && !seen[i] {
			seen[i] = true
			m.Babies++
		}
		if g := d / n1; g != 0 && (len(ms) == 0 || ms[len(ms)-1] != g) {
			ms = append(ms, g)
		}
	}
	if n%n1 == 0 { // −N1 steps land on multiples of N1 only when N1 divides n
		m.Up, m.Giants = hornerSplit(ms, n/n1)
	} else if len(ms) > 0 {
		m.Giants = ms[len(ms)-1]
	}
	return m
}

// ChooseN1 returns the power of two n1 in [1, n] minimising Babies +
// giantStepWeight·Giants over the sorted diagonals diags; the smallest
// minimiser wins (fewer raised baby steps alive at once). n1 = n has no
// giant step at all.
func ChooseN1(diags []int, n int) int {
	best, bestCost := 1, -1
	for n1 := 1; n1 <= n; n1 <<= 1 {
		m := NewMatVec(0, diags, n, n1)
		if cost := m.Babies + giantStepWeight*m.Giants; bestCost < 0 || cost < bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// hornerSplit divides the giant multiples ms (ascending, in [1, k), k
// giant positions) between the chains: up to up by +n1 (up steps), the
// rest by −n1 (k − the smallest of them). It returns the cut with the
// fewest steps, then the fewest chains (one key fewer), then the largest
// up.
func hornerSplit(ms []int, k int) (up, steps int) {
	bestChains := 0
	for i := len(ms); i >= 0; i-- {
		u, d := 0, 0
		if i > 0 {
			u = ms[i-1]
		}
		if i < len(ms) {
			d = k - ms[i]
		}
		chains := min(u, 1) + min(d, 1)
		if i == len(ms) || u+d < steps || u+d == steps && chains < bestChains {
			up, steps, bestChains = u, u+d, chains
		}
	}
	return up, steps
}
