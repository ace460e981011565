package design

import "repro/internal/simfhe"

// §4.2 closes with a balance analysis: once MAD removes the memory
// bottleneck, the prior ASICs become compute-bound and would need their
// compute throughput scaled up "2× in BTS, 1.05× in ARK, and 3.5× in
// CraterLake to generate a balanced design". This file computes that
// factor for any (design, workload-cost) pair.

// BalanceFactor returns how much the design's compute throughput must be
// scaled so compute time equals memory time for the given cost:
//   - factor > 1: compute-bound — the design needs `factor`× more
//     multipliers (or frequency) to balance;
//   - factor < 1: memory-bound — the design has 1/factor× more compute
//     than its memory system can feed;
//   - factor = 1: balanced.
func BalanceFactor(d Design, c simfhe.Cost) float64 {
	mem := d.MemorySeconds(c)
	if mem == 0 {
		return 0
	}
	return d.ComputeSeconds(c) / mem
}
