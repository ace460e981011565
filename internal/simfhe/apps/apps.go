// Package apps holds the leveled plans of the paper's two Figure 6
// workloads — HELR logistic-regression training (Han et al. [18]) and
// ResNet-20 CIFAR-10 inference (Lee et al. [27]) — and Figure 6's bar
// builder. A plan is a simfhe.Schedule of identical units (one training
// iteration, one network layer); each unit lists its batches of Table 2
// primitives at the depth, below the unit's entry level, at which the
// algorithm runs them. simfhe.Ctx.RunSchedule prices the plan: it charges
// every batch at its level and inserts the bootstraps the unit depths
// call for.
package apps

import (
	"repro/internal/simfhe"
	"repro/internal/simfhe/design"
)

// HELR returns the logistic-regression training plan: 30 iterations of
// mini-batch Nesterov gradient descent with HELR's degree-7 sigmoid. One
// iteration, levels counted down from its entry:
//
//   - depth 0: the forward product z = x ⊙ w (1 Mult);
//   - depth 1: z's rotate-and-sum over 2^8 features (8 Rotates) and the
//     sigmoid's first level: z² and its two odd terms' coefficient
//     scalings (1 Mult, 2 PtMults);
//   - depths 2 and 3: the sigmoid's remaining two levels (1 Mult each),
//     so σ(z) lands at depth 4;
//   - depth 4: the gradient product (σ(z) − y) ⊙ x (1 Mult);
//   - depth 5: its rotate-and-sum (8 Rotates) and the learning-rate and
//     momentum scalings of the Nesterov step (2 PtMults);
//   - depth 6: the weight and momentum updates (6 Adds).
//
// The deepest batch ends at depth 6, so the unit is 6 levels deep, and a
// fresh budget of 19 levels (the optimal parameters) holds exactly three
// iterations: §4.3's "we need to perform bootstrapping after every three
// training iterations".
func HELR() simfhe.Schedule {
	return repeat("HELR logistic-regression training", 30, simfhe.Unit{
		{Kind: simfhe.OpMult, Count: 1, Depth: 0},
		{Kind: simfhe.OpRotate, Count: 8, Depth: 1},
		{Kind: simfhe.OpMult, Count: 1, Depth: 1},
		{Kind: simfhe.OpPtMult, Count: 2, Depth: 1},
		{Kind: simfhe.OpMult, Count: 1, Depth: 2},
		{Kind: simfhe.OpMult, Count: 1, Depth: 3},
		{Kind: simfhe.OpMult, Count: 1, Depth: 4},
		{Kind: simfhe.OpRotate, Count: 8, Depth: 5},
		{Kind: simfhe.OpPtMult, Count: 2, Depth: 5},
		{Kind: simfhe.OpAdd, Count: 6, Depth: 6},
	})
}

// ResNet20 returns the encrypted-inference plan after Lee et al.: 20
// layers, one image at a time, each a multiplexed convolution and a
// composite-minimax ReLU. One layer, levels counted down from its entry:
//
//   - depth 0: the convolution lines the input up with each kernel weight
//     (17 Rotates) and multiplies by the weights (17 PtMults);
//   - depth 1: the products are summed (16 Adds) and masked into the
//     multiplexed output layout (17 PtMults);
//   - depth 2: the masked blocks are gathered (17 Rotates, 16 Adds);
//   - depths 2–14: the sign function sgn(x) as the composition of minimax
//     polynomials of degrees 15, 15 and 27, four, four and five levels
//     deep (depths 2–5, 6–9 and 10–14); each component's power ladder is
//     three Mults on its first three levels, and its remaining levels
//     combine the plaintext coefficients, charged in no batch;
//   - depth 15: ReLU(x) = x·(1 + sgn(x))/2 (8 Adds, 1 Mult).
//
// The final product ends at depth 16: the convolution's 2 levels and the
// ReLU's 14. A fresh budget of 19 levels holds one layer, so every layer
// after the first bootstraps.
func ResNet20() simfhe.Schedule {
	u := simfhe.Unit{
		{Kind: simfhe.OpRotate, Count: 17, Depth: 0},
		{Kind: simfhe.OpPtMult, Count: 17, Depth: 0},
		{Kind: simfhe.OpAdd, Count: 16, Depth: 1},
		{Kind: simfhe.OpPtMult, Count: 17, Depth: 1},
		{Kind: simfhe.OpRotate, Count: 17, Depth: 2},
		{Kind: simfhe.OpAdd, Count: 16, Depth: 2},
	}
	for _, first := range []int{2, 6, 10} {
		for d := first; d < first+3; d++ {
			u = append(u, simfhe.Step{Kind: simfhe.OpMult, Count: 1, Depth: d})
		}
	}
	u = append(u, simfhe.Step{Kind: simfhe.OpAdd, Count: 8, Depth: 15},
		simfhe.Step{Kind: simfhe.OpMult, Count: 1, Depth: 15})
	return repeat("ResNet-20 CIFAR-10 inference", 20, u)
}

// repeat returns the plan of n identical units.
func repeat(name string, n int, u simfhe.Unit) simfhe.Schedule {
	s := simfhe.Schedule{Name: name, Units: make([]simfhe.Unit, n)}
	for i := range s.Units {
		s.Units[i] = u
	}
	return s
}

// Figure6Point is one bar of a Figure 6 sub-plot.
type Figure6Point struct {
	Label     string  `json:"label"`
	RuntimeS  float64 `json:"runtime_s"`
	Published bool    `json:"published"` // published original-design number vs model output
}

// Figure6LR reproduces the LR-training sub-figures (a)–(e): for each
// design, the published original time followed by the design+MAD bars at
// the paper's cache sizes.
func Figure6LR() (map[string][]Figure6Point, error) {
	return figure6(HELR(), func(d design.Design) float64 { return d.Published.LRTrainingS }, map[string][]int{
		"GPU [20]":        {6, 32},
		"F1 [30]":         {32, 64},
		"CraterLake [31]": {32, 256},
		"BTS [25]":        {32, 256, 512},
		"ARK [24]":        {32, 256, 512},
	})
}

// Figure6ResNet reproduces the inference sub-figures (f)–(h).
func Figure6ResNet() (map[string][]Figure6Point, error) {
	return figure6(ResNet20(), func(d design.Design) float64 { return d.Published.ResNet20S }, map[string][]int{
		"CraterLake [31]": {32, 256},
		"BTS [25]":        {32, 256, 512},
		"ARK [24]":        {32, 256, 512},
	})
}

func figure6(s simfhe.Schedule, published func(design.Design) float64, caches map[string][]int) (map[string][]Figure6Point, error) {
	out := make(map[string][]Figure6Point)
	for _, d := range design.All() {
		sizes, ok := caches[d.Name]
		if !ok {
			continue
		}
		points := []Figure6Point{{
			Label:     d.Name + " (published)",
			RuntimeS:  published(d),
			Published: true,
		}}
		// Modeled original: the design's own cache and baseline
		// parameters. The caching optimizations are requested and the
		// capacity filter grants whatever the design's memory supports —
		// a 512 MB ASIC keeps full working sets on chip, the 6 MB GPU
		// only the small ones. This is the self-consistent reference the
		// MAD speedup ratios are measured against.
		rt, err := runtime(s, d, simfhe.Baseline(), simfhe.CachingOpts())
		if err != nil {
			return nil, err
		}
		points = append(points, Figure6Point{Label: d.Name + " (modeled)", RuntimeS: rt})
		for _, mb := range sizes {
			dm := d.WithMemory(mb)
			if rt, err = runtime(s, dm, simfhe.Optimal(), simfhe.AllOpts()); err != nil {
				return nil, err
			}
			points = append(points, Figure6Point{Label: dm.Name + "+MAD", RuntimeS: rt})
		}
		out[d.Name] = points
	}
	return out, nil
}

// runtime prices the plan on design d with its on-chip memory as the cache.
func runtime(s simfhe.Schedule, d design.Design, p simfhe.Params, opts simfhe.OptSet) (float64, error) {
	res, err := simfhe.NewCtx(p, simfhe.MB(d.OnChipMB), opts).RunSchedule(s)
	return d.RuntimeSeconds(res.Total), err
}
