package obs

// OpCost is a predicted cost for one evaluator operation, produced by a
// CostModel and attached to op spans as the "pred.*" ledger attributes.
type OpCost struct {
	Bytes uint64 // predicted DRAM traffic
	Ops   uint64 // predicted modular-op count
	NTT   uint64 // predicted limb-sized (i)NTT invocations
}

// CostModel predicts the cost of one evaluator operation. It is defined
// here — not next to the analytic model — so instrumented layers (ckks)
// can hold a predictor without importing the simulator: the concrete
// implementation lives in internal/obs/ledger, which bridges into the
// calibrated simfhe model.
//
// kind names the operation exactly as its span does, minus the package
// prefix; the vocabulary lives in internal/obs/ledger. limbs is the
// operand limb count (level+1); fanout is the hoisted fan-out width (0 or
// 1 for non-hoisted ops). ok reports whether the model covers the kind.
type CostModel interface {
	PredictOp(kind string, limbs, fanout int) (cost OpCost, ok bool)
}

// ByteCounters are the kernel-side traffic counters whose per-span
// deltas approximate an op's measured memory traffic: NTT/iNTT kernel
// sweeps, basis-extension streams, and switching-key reads. This is
// raw kernel traffic, not cache-filtered DRAM traffic — the calibrated
// measured side lives in `simfhe validate`, which replays the op's
// memtrace window through the cache simulator.
var ByteCounters = []string{"ring.ntt.bytes", "ring.intt.bytes", "rns.extend.bytes", "ckks.key.bytes"}

// MeasuredBytes sums the ByteCounters deltas captured by a full span.
// ok is false for lite spans (no counter snapshot) and spans whose
// window saw none of the byte counters move.
func (sp SpanRecord) MeasuredBytes() (total uint64, ok bool) {
	for _, k := range ByteCounters {
		if v, present := sp.Counters[k]; present {
			total += v
			ok = true
		}
	}
	return total, ok
}
