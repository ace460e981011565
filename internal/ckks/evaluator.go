package ckks

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/rns"
)

func log2(x float64) float64 { return math.Log2(x) }

// Evaluator performs homomorphic operations on ciphertexts. It implements
// every primitive of the paper's Table 2 plus the hoisted variants used by
// the MAD algorithmic optimizations.
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeySet

	// workers is the parallelism budget for the limb-, digit- and
	// rotation-level fan-outs (1 = serial; set via WithWorkers/SetWorkers).
	// Results are bit-identical for every worker count.
	workers int

	// rec, when non-nil, receives a hierarchical span per primitive (an op
	// span — "ckks.Rotate", "ckks.Mult", … — directly owns its rns sub-op,
	// stage and ring worker spans; no op nests another) and the counters
	// "ckks.keyswitch", "ckks.mult", "ckks.rotate", "ckks.rescale",
	// "ckks.limbs" and "ckks.key.bytes" (switching-key limb bytes read by
	// inner products); the rings' kernels count the transforms
	// ("ring.ntt", "ring.intt"). A nil recorder costs one nil check per
	// call.
	rec *obs.Recorder

	// model, when non-nil, annotates every op span with the analytic
	// model's predicted cost at the op's exact (level, fanout) point —
	// the "pred.*" ledger attributes (see internal/obs/ledger).
	model obs.CostModel

	// tr, when non-nil, records the limb-granular memory access stream of
	// every primitive (internal/memtrace): the ring and rns hooks cover
	// the generic kernels, and the evaluator adds the operand-class
	// annotations only it knows — switching-key reads, plaintext tags,
	// accumulator residency.
	tr *memtrace.Tracer

	// fi, when non-nil, is a chaos-testing fault injector consulted at the
	// named hook sites of Do and the key-switch digit resolve (see
	// internal/faultinject). Nil costs one pointer
	// comparison per hook. Injection mutates shared state: run chaos
	// experiments with SetWorkers(1).
	fi *faultinject.Injector

	// integrity, when true, makes Do Seal every ciphertext it returns,
	// arming the checksum comparison in Validate.
	integrity bool

	// vault is the bounded cache of demand-materialized uniform key
	// halves for seed-compressed switching keys (see keyvault.go). Always
	// non-nil; unlimited budget by default (WithKeyBudget).
	vault *keyVault

	// opCtx is nil on every evaluator a caller holds. Do sets it on the
	// shallow copy it hands its op (see context.go): op boundaries and
	// fan-out units check it and abort with a typed fherr.ErrCanceled
	// once it is done.
	opCtx context.Context
}

// EvaluatorOption configures an Evaluator at construction time.
type EvaluatorOption func(*Evaluator)

// WithWorkers sets the evaluator's worker count (see SetWorkers).
func WithWorkers(n int) EvaluatorOption {
	return func(ev *Evaluator) { ev.SetWorkers(n) }
}

// WithKeyBudget bounds the bytes of expanded uniform key halves the
// evaluator's key vault keeps resident for seed-compressed switching
// keys; least-recently-used digits are evicted (and later rematerialized
// from their seeds on demand) once the bound is exceeded. bytes <= 0
// leaves the vault unbounded, the default. Any budget — even one smaller
// than a single digit — preserves correctness and progress; it trades
// expansion compute for resident key memory.
func WithKeyBudget(bytes int64) EvaluatorOption {
	return func(ev *Evaluator) { ev.vault.budget = bytes }
}

// NewEvaluator returns an evaluator with the given keys. The key set (or
// individual keys in it) may be nil if the corresponding operations are
// never used. By default the evaluator is serial; pass WithWorkers to
// enable limb-level parallelism.
func NewEvaluator(params *Parameters, keys *EvaluationKeySet, opts ...EvaluatorOption) *Evaluator {
	if keys == nil {
		keys = &EvaluationKeySet{}
	}
	ev := &Evaluator{params: params, keys: keys, workers: 1, vault: newKeyVault(params)}
	for _, opt := range opts {
		opt(ev)
	}
	return ev
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// Keys returns the evaluator's key set.
func (ev *Evaluator) Keys() *EvaluationKeySet { return ev.keys }

// KeyVaultStats snapshots the key vault's hit/miss/eviction counters and
// resident-byte occupancy.
func (ev *Evaluator) KeyVaultStats() KeyVaultStats { return ev.vault.stats() }

// FlushKeyVault drops every materialized digit no product holds, forcing
// rematerialization from seeds on next use — the recovery action after
// suspected corruption of cached key material.
func (ev *Evaluator) FlushKeyVault() { ev.vault.flush() }

// SetWorkers sets the parallelism budget for basis conversions, key-switch
// inner products and hoisted-rotation fan-outs. n ≤ 0 selects GOMAXPROCS.
// Every worker count produces bit-identical ciphertexts; the knob trades
// cores for latency only.
func (ev *Evaluator) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ev.workers = n
	ev.rec.SetGauge("ckks.workers", float64(n))
}

// Workers returns the evaluator's current worker count.
func (ev *Evaluator) Workers() int { return ev.workers }

// splitWorkers divides a worker budget between an outer fan-out over
// `tasks` independent items and the per-item inner (limb-level)
// parallelism, preferring the outer axis: fan-out parallelism has no
// synchronization points, whereas limb parallelism joins at every
// conversion step.
func splitWorkers(workers, tasks int) (outer, inner int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || tasks <= 1 {
		return 1, workers
	}
	if tasks >= workers {
		return workers, 1
	}
	return tasks, (workers + tasks - 1) / tasks
}

// SetRecorder attaches an observability recorder (nil detaches it). The
// recorder is propagated to the parameter set's shared basis-change
// Converter (the "rns.extend*" counters), to both rings (the "ring.ntt*"
// kernel and "ring.pool.*" occupancy counters) and to the ring worker
// pool (the "ring.parallel.task" latency histogram), so one attachment
// point lights up the whole stack.
func (ev *Evaluator) SetRecorder(r *obs.Recorder) {
	ev.rec = r
	ev.params.Converter().SetRecorder(r)
	ev.params.RingQ().SetRecorder(r)
	ev.params.RingP().SetRecorder(r)
	ring.SetTaskRecorder(r)
	ev.vault.rec = r
	r.SetGauge("ckks.workers", float64(ev.workers))
	r.SetGauge("ckks.keyvault.budget_bytes", float64(ev.vault.budget))
}

// Recorder returns the attached recorder, which may be nil.
func (ev *Evaluator) Recorder() *obs.Recorder { return ev.rec }

// SetCostModel attaches a cost ledger (nil detaches it): with both a
// recorder and a model attached, every op span carries the model's
// predicted bytes/ops/NTTs for its exact parameter point, so traces and
// `simfhe validate` can put predicted next to measured per op.
func (ev *Evaluator) SetCostModel(m obs.CostModel) { ev.model = m }

// startOp opens the hierarchical span for one evaluator-level op and
// stamps the cost ledger on it: ciphertext telemetry (level, scale,
// degree), the model prediction at this (level, fanout) point when a
// cost model is attached, and the memtrace window start when a tracer is
// attached (`simfhe validate` replays [trace.begin, trace.end) through
// the cache sim for the measured side). kind is the span name minus the
// "ckks." prefix and doubles as the ledger key. Returns nil — and skips
// all annotation work — when no recorder is attached.
func (ev *Evaluator) startOp(kind string, level int, scale float64, fanout int) *obs.Span {
	// Every instrumented op boundary doubles as a cancellation point:
	// with a bound op context, a deadline that expired between ops stops
	// the next one before it starts (see context.go).
	ev.checkInterrupt()
	if ev.rec == nil {
		return nil
	}
	sp := ev.rec.StartOp("ckks." + kind)
	sp.SetAttr("ct.level", float64(level))
	sp.SetAttr("ct.degree", 1)
	if scale > 0 {
		sp.SetAttr("ct.scale_log2", log2(scale))
	}
	if fanout > 1 {
		sp.SetAttr("op.fanout", float64(fanout))
	}
	if ev.tr != nil {
		sp.SetAttr("trace.begin", float64(ev.tr.Len()))
	}
	if ev.model != nil {
		if c, ok := ev.model.PredictOp(kind, level+1, fanout); ok {
			sp.SetAttr("pred.bytes", float64(c.Bytes))
			sp.SetAttr("pred.ops", float64(c.Ops))
			sp.SetAttr("pred.ntt", float64(c.NTT))
		}
	}
	return sp
}

// endOp closes an op span, stamping the memtrace window end first.
func (ev *Evaluator) endOp(sp *obs.Span) {
	if sp == nil {
		return
	}
	if ev.tr != nil {
		sp.SetAttr("trace.end", float64(ev.tr.Len()))
	}
	sp.End()
}

// SetTracer attaches a memory access tracer (nil detaches it), propagating
// it to the shared Converter and both rings so every kernel the evaluator
// reaches records into the same stream. Tracing serializes the basis-
// extension kernel; run with SetWorkers(1) for a deterministic stream.
func (ev *Evaluator) SetTracer(t *memtrace.Tracer) {
	ev.tr = t
	ev.params.Converter().SetTracer(t)
	ev.params.RingQ().SetTracer(t)
	ev.params.RingP().SetTracer(t)
	ev.vault.tr = t
}

// Tracer returns the attached memory tracer, which may be nil.
func (ev *Evaluator) Tracer() *memtrace.Tracer { return ev.tr }

// tagPlaintext registers pt's limbs in the tracer's class registry, so the
// generic ring hooks' ct-class reads of the plaintext are reclassified as
// plaintext traffic at replay time.
func (ev *Evaluator) tagPlaintext(pt *Plaintext) {
	if ev.tr == nil {
		return
	}
	for i := range pt.Value.Coeffs {
		ev.tr.Tag(pt.Value.Coeffs[i], memtrace.ClassPt)
	}
}

// kP returns the number of special (P-basis) limbs, which every raised
// polynomial carries and the analytic NTT accounting needs.
func (ev *Evaluator) kP() int { return len(ev.params.RingP().Moduli) }

// newCiphertext draws an op's output at level from the ring's exact-size
// pools (ring.GetPoly): its words are stale, and the op writes every one.
func (ev *Evaluator) newCiphertext(level int, scale float64) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(level)
	return &Ciphertext{C0: rQ.GetPoly(), C1: rQ.GetPoly(), Scale: scale, Level: level}
}

// copyAt is a pooled copy of ct's first level+1 limbs.
func (ev *Evaluator) copyAt(ct *Ciphertext, level int) *Ciphertext {
	out := ev.newCiphertext(level, ct.Scale)
	src := ct.atLevel(level)
	src.C0.Copy(out.C0)
	src.C1.Copy(out.C1)
	return out
}

// Release hands ciphertexts the caller is done with back to the pools
// every op draws its outputs from, so a later op reuses their memory
// instead of allocating and zeroing fresh polynomials. It sets each one's
// halves to nil. As with a switching key the vault evicted, holding a
// released ciphertext is a bug: its polynomials and limbs belong to the
// next op's output, and releasing one that is still read elsewhere (a
// copy of the pointer, an input of an op in flight) corrupts that reader.
// Any ciphertext of this parameter set may be released, whoever made it;
// nil entries and ciphertexts already released are skipped. A caller that
// never releases allocates what it would without the pools.
func (ev *Evaluator) Release(cts ...*Ciphertext) {
	rQ := ev.params.RingQ()
	for _, ct := range cts {
		if ct == nil || ct.C0 == nil {
			continue
		}
		rQ.PutPoly(ct.C0)
		rQ.PutPoly(ct.C1)
		ct.C0, ct.C1 = nil, nil
	}
}

func minLevel(ct0, ct1 *Ciphertext) int {
	if ct0.Level < ct1.Level {
		return ct0.Level
	}
	return ct1.Level
}

func sameScale(a, b float64) bool {
	return math.Abs(a-b)/a < 1e-9
}

// Add returns ct0 + ct1 (Table 2 Add). Operands must share a scale.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	if !sameScale(ct0.Scale, ct1.Scale) {
		panic(fmt.Sprintf("ckks: Add scale mismatch (got=2^%.2f, want=2^%.2f)", log2(ct1.Scale), log2(ct0.Scale)))
	}
	level := minLevel(ct0, ct1)
	rQ := ev.params.RingQ().AtLevel(level)
	out := ev.newCiphertext(level, ct0.Scale)
	rQ.Add(ct0.C0, ct1.C0, out.C0)
	rQ.Add(ct0.C1, ct1.C1, out.C1)
	return out
}

// Sub returns ct0 - ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) *Ciphertext {
	if !sameScale(ct0.Scale, ct1.Scale) {
		panic(fmt.Sprintf("ckks: Sub scale mismatch (got=2^%.2f, want=2^%.2f)", log2(ct1.Scale), log2(ct0.Scale)))
	}
	level := minLevel(ct0, ct1)
	rQ := ev.params.RingQ().AtLevel(level)
	out := ev.newCiphertext(level, ct0.Scale)
	rQ.Sub(ct0.C0, ct1.C0, out.C0)
	rQ.Sub(ct0.C1, ct1.C1, out.C1)
	return out
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ev.newCiphertext(ct.Level, ct.Scale)
	rQ.Neg(ct.C0, out.C0)
	rQ.Neg(ct.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (Table 2 PtAdd). The plaintext must share the
// ciphertext's scale and be at a level ≥ the ciphertext's.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.tagPlaintext(pt)
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: AddPlain scale mismatch (got=2^%.2f, want=2^%.2f)", log2(pt.Scale), log2(ct.Scale)))
	}
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ev.newCiphertext(ct.Level, ct.Scale)
	rQ.Add(ct.C0, pt.Value, out.C0)
	ct.atLevel(ct.Level).C1.Copy(out.C1)
	return out
}

// SubPlain returns ct - pt.
func (ev *Evaluator) SubPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.tagPlaintext(pt)
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: SubPlain scale mismatch (got=2^%.2f, want=2^%.2f)", log2(pt.Scale), log2(ct.Scale)))
	}
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ev.newCiphertext(ct.Level, ct.Scale)
	rQ.Sub(ct.C0, pt.Value, out.C0)
	ct.atLevel(ct.Level).C1.Copy(out.C1)
	return out
}

// MulPlain returns ct ⊙ pt without rescaling (the caller decides when to
// Rescale); the output scale is the product of the scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.tagPlaintext(pt)
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	out := ev.newCiphertext(ct.Level, ct.Scale*pt.Scale)
	rQ.MulCoeffs(ct.C0, pt.Value, out.C0)
	rQ.MulCoeffs(ct.C1, pt.Value, out.C1)
	return out
}

// MulPlainRescale is the full PtMult of Table 2: multiply then Rescale.
func (ev *Evaluator) MulPlainRescale(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	prod := ev.MulPlain(ct, pt)
	defer ev.Release(prod)
	return ev.Rescale(prod)
}

// MulByConstReal multiplies every slot by the real constant c, carrying it
// at scale constScale (the output scale is ct.Scale·constScale and one
// Rescale is usually owed afterwards). constScale = 1 with integral c
// costs no scale at all. The rounding of c·constScale to an integer
// introduces an absolute slot error ≤ 0.5/constScale — pick constScale
// large enough (≈ Δ) that this vanishes below the noise floor.
func (ev *Evaluator) MulByConstReal(ct *Ciphertext, c float64, constScale float64) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	scaled := math.Round(c * constScale)
	outScale := ct.Scale * constScale
	neg := scaled < 0
	out := ev.newCiphertext(ct.Level, outScale)
	abs := math.Abs(scaled)
	if abs >= 1<<62 {
		// Gigantic constants (e.g. aligning to Δ² scales) exceed uint64:
		// reduce the float per modulus instead.
		for i, s := range rQ.SubRings {
			ci := mathutil.ReduceFloat(abs, s.Q)
			cs := mathutil.ShoupPrecomp(ci, s.Q)
			for j := 0; j < rQ.N; j++ {
				out.C0.Coeffs[i][j] = mathutil.MulModShoup(ct.C0.Coeffs[i][j], ci, cs, s.Q)
				out.C1.Coeffs[i][j] = mathutil.MulModShoup(ct.C1.Coeffs[i][j], ci, cs, s.Q)
			}
		}
		out.C0.IsNTT, out.C1.IsNTT = ct.C0.IsNTT, ct.C1.IsNTT
	} else {
		rQ.MulScalar(ct.C0, uint64(abs), out.C0)
		rQ.MulScalar(ct.C1, uint64(abs), out.C1)
	}
	if neg {
		rQ.Neg(out.C0, out.C0)
		rQ.Neg(out.C1, out.C1)
	}
	return out
}

// AddConstReal adds the real constant c to every slot, encoding it at the
// ciphertext's own scale (no level or scale change).
func (ev *Evaluator) AddConstReal(ct *Ciphertext, c float64) *Ciphertext {
	out := ev.copyAt(ct, ct.Level)
	ev.addConst(out, c)
	return out
}

// addConst is AddConstReal in place, for a ciphertext the caller owns.
func (ev *Evaluator) addConst(ct *Ciphertext, c float64) {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	v := math.Round(c * ct.Scale)
	for i, s := range rQ.SubRings {
		ci := mathutil.ReduceFloat(v, s.Q)
		oi := ct.C0.Coeffs[i][:rQ.N]
		// In NTT form a constant polynomial is the same constant in every
		// slot, so the broadcast add is exact.
		s.ReduceThenAddConst(oi, s.Q, ci, oi)
	}
}

// mulByConstThenAdd is acc += MulByConstReal(ct, c, constScale) in one
// pass and no temporary: the same modular sum as Add of the two, limb for
// limb. ct is read at acc's level; acc must already carry the product's
// scale.
func (ev *Evaluator) mulByConstThenAdd(ct *Ciphertext, c, constScale float64, acc *Ciphertext) {
	if !sameScale(acc.Scale, ct.Scale*constScale) {
		panic(fmt.Sprintf("ckks: Add scale mismatch (got=2^%.2f, want=2^%.2f)", log2(ct.Scale*constScale), log2(acc.Scale)))
	}
	rQ := ev.params.RingQ().AtLevel(acc.Level)
	scaled := math.Round(c * constScale)
	for i, s := range rQ.SubRings {
		w := mathutil.ReduceFloat(scaled, s.Q)
		ws := mathutil.ShoupPrecomp(w, s.Q)
		ev.mulScalarThenAddLimb(s, ct.C0.Coeffs[i], nil, w, ws, acc.C0.Coeffs[i])
		ev.mulScalarThenAddLimb(s, ct.C1.Coeffs[i], nil, w, ws, acc.C1.Coeffs[i])
	}
}

// mulScalarThenAddLimb sets acc[j] += w·x[perm[j]] mod q over one limb
// (perm nil: the identity; ws is w's Shoup companion), traced
// (ring.SubRing.MulScalarThenAdd).
func (ev *Evaluator) mulScalarThenAddLimb(s *ring.SubRing, x []uint64, perm []int, w, ws uint64, acc []uint64) {
	x, acc = x[:s.N], acc[:s.N]
	ev.tr.Read(x)
	ev.tr.Read(acc)
	s.MulScalarThenAdd(x, perm, w, ws, acc)
	ev.tr.Write(acc)
}

// Rescale divides the ciphertext by its top limb modulus (Table 2's
// Rescale column), dropping one level and shrinking the scale by q_ℓ.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	level := ct.Level
	if level == 0 {
		panic("ckks: Rescale level (got=0, want>=1)")
	}
	sp := ev.startOp("Rescale", level, ct.Scale, 0)
	defer ev.endOp(sp)
	ev.rec.Add("ckks.rescale", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	conv := ev.params.Converter()
	out := ev.newCiphertext(level-1, ct.Scale/float64(ev.params.Q()[level]))
	conv.Rescale(level, ct.C0, out.C0, ev.workers)
	conv.Rescale(level, ct.C1, out.C1, ev.workers)
	return out
}

// DropLevel returns the ciphertext truncated to the given lower level
// without any scaling (the RNS representation just loses limbs).
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) *Ciphertext {
	if level < 0 || level > ct.Level {
		panic(fmt.Sprintf("ckks: DropLevel level (got=%d, want within [0,%d])", level, ct.Level))
	}
	return ev.copyAt(ct, level)
}

// atLevel is DropLevel without the copy: a view of ct's first level+1
// limbs that shares ct's storage. It is for handing a higher-level
// operand to an op that takes its level from the operand and only reads
// it (MulByConstReal); binary ops already evaluate at the lower level of
// the two and need neither. The view must not be written or returned.
func (ct *Ciphertext) atLevel(level int) *Ciphertext {
	return &Ciphertext{
		C0:    &ring.Poly{Coeffs: ct.C0.Coeffs[:level+1], IsNTT: ct.C0.IsNTT},
		C1:    &ring.Poly{Coeffs: ct.C1.Coeffs[:level+1], IsNTT: ct.C1.IsNTT},
		Scale: ct.Scale,
		Level: level,
	}
}

// decomposeModUp performs the Decomp + ModUp front half of KeySwitch
// (Algorithm 3 lines 1–2): it splits x into β digits and raises each to
// the Q∪P basis. The digits come out in Montgomery form (R·d per limb,
// see rns.Converter.ModUpDigit), the form kskInnerProduct's kernel takes
// and divides back out, so they feed nothing else. The result can be
// reused across many automorphisms — this is exactly the standard "ModUp
// hoisting" for rotations. The digits and the slice holding them are
// pooled; release them with putDigits.
func (ev *Evaluator) decomposeModUp(level int, x *ring.Poly, workers int) *[]rns.PolyQP {
	p := ev.params
	conv := p.Converter()
	alpha := p.Alpha()
	beta := p.Beta(level)
	set := digitSets.Get().(*[]rns.PolyQP)
	for j := 0; j < beta; j++ {
		*set = append(*set, conv.GetPolyQP(level))
	}
	digits := *set
	outer, inner := splitWorkers(workers, beta)
	ev.fanOut(beta, outer, func(j int) {
		start := j * alpha
		end := min(start+alpha, level+1)
		conv.ModUpDigit(level, start, end, x, digits[j], inner)
	})
	return set
}

// digitSets recycles decomposeModUp's digit slices, held by pointer so
// that handing one back stores the pointer it came as and boxes nothing.
var digitSets = sync.Pool{New: func() any { return new([]rns.PolyQP) }}

// putDigits returns the digits from decomposeModUp, and their slice, to
// the pools.
func (ev *Evaluator) putDigits(set *[]rns.PolyQP) {
	conv := ev.params.Converter()
	for _, d := range *set {
		conv.PutPolyQP(d)
	}
	clear(*set)
	*set = (*set)[:0]
	digitSets.Put(set)
}

// kskOperands is the limb-major view of one kernel pass's operands over
// the raised limbs [lo, hi): for limb i, the rows of the K lanes' β
// raised digits (digit j of lane k at j·K + k), of the key's b halves, of
// its a halves and of the lanes' output halves u and v — what
// ring.SubRing.GatherMulAccumulate consumes — plus the held key, whose
// streamed digits' a rows are drawn per limb as the limb runs. Pooled, so
// a steady-state pass allocates nothing.
type kskOperands struct {
	rows        [][]uint64 // limb i: K·β digit, β b, β a, K u and K v rows, from (i−lo)·stride()
	lo, hi      int
	beta, lanes int
	key         *heldKey // nil: no key (the transform's diagonal sums)
}

// kskRows is one limb's rows of a kskOperands.
type kskRows struct{ d, b, a, u, v [][]uint64 }

var kskOperandsPool = sync.Pool{New: func() any { return new(kskOperands) }}

// getKskOperands draws operand views for a pass of lanes sums of beta
// products each over the raised limbs [lo, hi). The rows are stale; the
// caller fills every one. Return them with kskRelease.
func getKskOperands(lo, hi, lanes, beta int) *kskOperands {
	ops := kskOperandsPool.Get().(*kskOperands)
	ops.lo, ops.hi, ops.beta, ops.lanes = lo, hi, beta, lanes
	if need := (hi - lo) * ops.stride(); cap(ops.rows) < need {
		ops.rows = make([][]uint64, need)
	} else {
		ops.rows = ops.rows[:need]
	}
	return ops
}

// raisedLimb returns the first n words of limb i of a raised polynomial,
// counting the nQ limbs of its Q part first and its P limbs after them.
func raisedLimb(p rns.PolyQP, i, nQ, n int) []uint64 {
	if i < nQ {
		return p.Q.Coeffs[i][:n]
	}
	return p.P.Coeffs[i-nQ][:n]
}

// stride is the number of rows per limb.
func (o *kskOperands) stride() int { return (o.lanes+2)*o.beta + 2*o.lanes }

// limb returns limb i's rows.
func (o *kskOperands) limb(i int) kskRows {
	r := o.rows[(i-o.lo)*o.stride() : (i-o.lo+1)*o.stride()]
	kb, b := o.lanes*o.beta, o.beta
	return kskRows{
		d: r[:kb], b: r[kb : kb+b], a: r[kb+b : kb+2*b],
		u: r[kb+2*b : kb+2*b+o.lanes], v: r[kb+2*b+o.lanes:],
	}
}

// setOutputs points every limb's lane-k output rows at the raised pair
// (u, v) and marks the pair as NTT-domain, which is what the pass writes.
func (o *kskOperands) setOutputs(k, nQ, n int, u, v rns.PolyQP) {
	for i := o.lo; i < o.hi; i++ {
		r := o.limb(i)
		r.u[k], r.v[k] = raisedLimb(u, i, nQ, n), raisedLimb(v, i, nQ, n)
	}
	u.Q.IsNTT, u.P.IsNTT = true, true
	v.Q.IsNTT, v.P.IsNTT = true, true
}

// kskLane is one product of a key pass: its β raised digits, the
// Q-basis polynomial whose lift P·σ(c0) the keyed step adds to u (nil:
// none) and the raised pair (u, v) it writes.
type kskLane struct {
	digits []rns.PolyQP
	c0     *ring.Poly
	u, v   rns.PolyQP
}

// heldKey is a switching key's first β digits, held for a key pass or for
// a transform's whole limb sweep. Each digit's a half is resident — in the
// key itself, or pinned in the vault — or streamed: marks holds the
// limb checkpoints of its seed's stream, and the product draws each limb's
// row just before that limb's kernel call. Pooled: holdKey draws one,
// releaseKey unpins and returns it.
type heldKey struct {
	swk      *SwitchingKey
	a        []rns.PolyQP        // per digit: its a half when resident
	marks    [][]prng.Checkpoint // per digit: its stream's limb checkpoints when streamed
	streamed bool                // some digit is streamed
	pinned   []int               // digits pinned in the vault
}

var heldKeys = sync.Pool{New: func() any { return new(heldKey) }}

// holdKey holds swk's first beta digits. A digit with its a half in the
// key is read from there; a seed-only digit is looked up in the vault
// once: resident (a hit) or admitted and expanded (a miss), and pinned
// until releaseKey. With stream set, a seed-only digit the vault could
// only admit by evicting is streamed instead — neither admitted nor
// evicting anything. The fault hooks run here, once per digit in
// ascending order. Release the key with releaseKey, deferred: only a key
// without seeds can fail here, and it pins nothing.
func (ev *Evaluator) holdKey(swk *SwitchingKey, beta int, stream bool) *heldKey {
	key := heldKeys.Get().(*heldKey)
	key.swk, key.streamed = swk, false
	key.a = slices.Grow(key.a[:0], beta)[:beta]
	key.marks = slices.Grow(key.marks[:0], beta)[:beta]
	for j := 0; j < beta; j++ {
		a := swk.Digits[j].A
		if a.Q == nil {
			var marks []prng.Checkpoint
			if a, marks = ev.vault.acquire(swk, j, stream); marks != nil {
				key.marks[j], key.streamed = marks, true
			} else {
				key.pinned = append(key.pinned, j)
			}
		}
		key.a[j] = a
		if ev.fi != nil {
			// Chaos hook: corrupt resolved switching-key digits in place
			// (the Visit counter selects which digit). Key corruption is
			// invisible to ciphertext checksums — it is the fault class
			// only the decrypt-compare precision guard (or a downstream
			// limb-shape panic) can catch. A streamed digit has no a half
			// in memory to corrupt.
			ev.fi.Poly("ckks.ksk.digitB", swk.Digits[j].B.Q)
			ev.fi.Poly("ckks.ksk.digitA", a.Q)
		}
	}
	return key
}

// releaseKey unpins what holdKey pinned and returns the key to the pool,
// dropping its views (they would keep evicted key buffers reachable).
func (ev *Evaluator) releaseKey(key *heldKey) {
	for _, j := range key.pinned {
		ev.vault.release(key.swk, j)
	}
	key.pinned = key.pinned[:0]
	clear(key.a)
	clear(key.marks)
	key.swk = nil
	heldKeys.Put(key)
}

// kskInnerProduct writes Σ_j ksk_j ⊙ σ(digits_j) into the raised limbs
// [lo, hi) of the pair (u, v) of every lane — Algorithm 3 line 3 for up to
// ring.MaxLanes products that share the key — where σ is the slot
// permutation perm (nil for a plain key switch, the Galois index table for
// a hoisted rotation step, so the rotated digits are never materialized).
// It is the one place a switching key is used; the caller holds the key.
// The kernel loads each key word once and multiplies it into every lane,
// so the key streams once per pass whatever the lane count. u and v are
// overwritten, so pooled scratch needs no zeroing. The parallel split is
// over limbs and every output word is an exact sum, so the result is
// bit-identical for any worker count, lane grouping and limb range.
func (ev *Evaluator) kskInnerProduct(level int, lanes []kskLane, perm []int, key *heldKey, lo, hi, workers int) {
	n, nQ := ev.params.N(), level+1
	beta, k := len(lanes[0].digits), len(lanes)
	ops := getKskOperands(lo, hi, k, beta)
	defer kskRelease(ops)
	ops.key = key
	for i := lo; i < hi; i++ {
		r := ops.limb(i)
		for j := 0; j < beta; j++ {
			r.b[j] = raisedLimb(key.swk.Digits[j].B, i, nQ, n)
			if key.marks[j] == nil {
				r.a[j] = raisedLimb(key.a[j], i, nQ, n)
			}
			for l, lane := range lanes {
				r.d[j*k+l] = raisedLimb(lane.digits[j], i, nQ, n)
			}
		}
	}
	for l, lane := range lanes {
		ops.setOutputs(l, nQ, n, lane.u, lane.v)
	}
	// Key traffic: both key halves stream once per pass over every raised
	// limb it covers — 2·β limbs of 8N bytes each.
	ev.rec.Add("ckks.key.bytes", 2*uint64(beta)*uint64(hi-lo)*8*uint64(n))
	ev.gatherMulAccumulate(nQ, ops, perm, memtrace.ClassCt, memtrace.ClassKey, workers)
}

// gatherMulAccumulate runs the fused kernel over the raised limbs of one
// operand view, writing each lane's pair (u, v) = (Σ_j b_j ⊙ σ(d_j), Σ_j
// a_j ⊙ σ(d_j)). It serves the key-switch product (d the raised digits,
// b and a the key halves) and the linear transform's diagonal sum (d the
// raised plaintext diagonals, b and a the halves of the raised baby-step
// ciphertexts); dClass and baClass are the memory-trace classes of the
// two operand kinds. The split is over limbs and every output word is an
// exact sum, so the pairs are bit-identical for any worker count.
func (ev *Evaluator) gatherMulAccumulate(nQ int, ops *kskOperands, perm []int, dClass, baClass memtrace.Class, workers int) {
	if ring.EffectiveWorkers(ops.hi-ops.lo, workers) == 1 {
		// Closure-free serial path (a closure handed to the pool is heap-
		// allocated even when it runs inline); same cancellation points.
		for i := ops.lo; i < ops.hi; i++ {
			ev.checkInterrupt()
			ev.kskLimb(i, nQ, ops, perm, dClass, baClass)
		}
		return
	}
	ev.fanOut(ops.hi-ops.lo, workers, func(i int) { ev.kskLimb(ops.lo+i, nQ, ops, perm, dClass, baClass) })
}

// kskLimb runs the fused kernel on raised limb i (Q limbs first, then P).
// A streamed key digit's row is drawn first, into a pooled tile: its
// stores are recorded as key-class writes, key material generated on
// chip. Memory hooks: per term the limb reads the b and a rows (class
// baClass: key for a key switch) once and every lane's d row once (class
// dClass) — gathered through perm on chip, feeding both products — and
// the output rows are written once at the end; their eventual writeback
// is the model's 2·raised ciphertext writes per lane.
func (ev *Evaluator) kskLimb(i, nQ int, ops *kskOperands, perm []int, dClass, baClass memtrace.Class) {
	var s *ring.SubRing
	if i < nQ {
		s = ev.params.RingQ().SubRings[i]
	} else {
		s = ev.params.RingP().SubRings[i-nQ]
	}
	r := ops.limb(i)
	if key := ops.key; key != nil && key.streamed {
		// The tile: one limb of pooled Q scratch per digit (β ≤ ℓ+1).
		tile, src := ev.params.RingQ().GetScratch(), streamSources.Get().(*prng.Source)
		defer ev.params.RingQ().PutScratch(tile)
		defer streamSources.Put(src)
		for j, marks := range key.marks {
			if marks != nil {
				r.a[j] = tile.Coeffs[j][:s.N]
				streamRow(src, marks, streamLimb(ev.params, nQ, i), s.Q, r.a[j])
				ev.tr.WriteClass(r.a[j], memtrace.ClassKey)
			}
		}
	}
	if ev.tr != nil {
		for j := range r.b {
			ev.tr.ReadClass(r.b[j], baClass)
			for _, d := range r.d[j*ops.lanes : (j+1)*ops.lanes] {
				ev.tr.ReadClass(d, dClass)
			}
			ev.tr.ReadClass(r.a[j], baClass)
		}
	}
	s.GatherMulAccumulate(r.d, r.b, r.a, perm, r.u, r.v)
	for k := range r.u {
		ev.tr.Write(r.u[k])
		ev.tr.Write(r.v[k])
	}
}

// kskRelease ends a pass: it drops the operand views (they would keep
// evicted key buffers and stream tiles reachable) and returns the scratch
// to the pool.
func kskRelease(ops *kskOperands) {
	clear(ops.rows)
	ops.key = nil
	kskOperandsPool.Put(ops)
}

// keyedStep is the evaluator's one key switch up to its closer: for each
// lane it writes the raised limbs [lo, hi) of the pair (u, v) = Σ_j ksk_j
// ⊙ σ(d_j) + (P·σ(c0), 0) — Algorithm 3's intermediate value, which the
// MAD algorithmic optimizations operate on directly — with σ the slot
// permutation perm (nil = identity), applied to the digits inside the
// kernel and to c0 inside the lift. The lanes share one key pass
// (kskInnerProduct) on the key the caller holds. Closing a pair returns
// ⌊u/P⌋ + σ(c0) exactly: P·σ(c0) is zero on the P limbs the division
// extends from. Every rotation, key switch and relinearization runs
// through here — over every limb through keyPass, or one limb at a time
// in the transform's sweep — and ends in lower or lowerRescale.
func (ev *Evaluator) keyedStep(level int, lanes []kskLane, perm []int, key *heldKey, lo, hi, workers int) {
	ev.kskInnerProduct(level, lanes, perm, key, lo, hi, workers)
	for _, lane := range lanes {
		if lane.c0 != nil {
			ev.addLifted(lane.c0, perm, lane.u, lo, min(hi, level+1))
		}
	}
}

// keyPass is keyedStep over every raised limb, with swk held for the pass
// alone: the key switch of every op but the transform's baby steps.
func (ev *Evaluator) keyPass(level int, lanes []kskLane, perm []int, swk *SwitchingKey, workers int) {
	key := ev.holdKey(swk, len(lanes[0].digits), false)
	defer ev.releaseKey(key)
	ev.keyedStep(level, lanes, perm, key, 0, level+1+ev.params.Alpha(), workers)
}

// keySwitch is the unhoisted keyed step: one Decomp+ModUp of x, then the
// step on the identity permutation — the raised pair of (c0, 0) +
// KeySwitch(x) at the given scale, pooled, for the caller to close. The
// caller owns the op span.
func (ev *Evaluator) keySwitch(level int, x, c0 *ring.Poly, swk *SwitchingKey, scale float64) raisedCt {
	if err := ev.params.checkKeyLevels(swk); err != nil {
		panic(err)
	}
	conv := ev.params.Converter()
	r := raisedCt{u: conv.GetPolyQP(level), v: conv.GetPolyQP(level), level: level, scale: scale}
	digits := ev.decomposeModUp(level, x, ev.workers)
	child := ev.rec.StartLinked("ckks.ks.product")
	ev.keyPass(level, []kskLane{{digits: *digits, c0: c0, u: r.u, v: r.v}}, nil, swk, ev.workers)
	child.End()
	ev.putDigits(digits)
	return r
}

// modDownPair is the ModDown pair of Algorithm 3 line 4 into caller-owned
// polynomials (pooled scratch where the pair is an intermediate).
func (ev *Evaluator) modDownPair(level int, u, v rns.PolyQP, p0, p1 *ring.Poly, workers int) {
	// Every key switch funnels through here, so the keyswitch counter
	// lives here.
	ev.rec.Add("ckks.keyswitch", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	conv := ev.params.Converter()
	conv.ModDown(level, u, p0, workers)
	conv.ModDown(level, v, p1, workers)
}

// KeySwitch computes ⟦x·w⟧ under the target key (full Algorithm 3).
func (ev *Evaluator) KeySwitch(level int, x *ring.Poly, swk *SwitchingKey) (p0, p1 *ring.Poly) {
	sp := ev.startOp("KeySwitch", level, 0, 0)
	defer ev.endOp(sp)
	out := ev.lower(ev.keySwitch(level, x, nil, swk, 0), ev.workers)
	return out.C0, out.C1
}

// galoisKey fetches the Galois key for element g.
func (ev *Evaluator) galoisKey(g uint64) *GaloisKey {
	gk, ok := ev.keys.Galois[g]
	if !ok {
		panic(fmt.Sprintf("ckks: Galois key missing (got=element %d, want=keyed element)", g))
	}
	return gk
}

// Rotate returns the ciphertext with slots rotated by k positions
// (Table 2 Rotate): Automorph on both halves, then KeySwitch on the c1
// half to return to the original key.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) *Ciphertext {
	g := ev.params.RingQ().GaloisElement(k)
	if g == 1 {
		return ev.copyAt(ct, ct.Level)
	}
	sp := ev.startOp("Rotate", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	ev.rec.Add("ckks.rotate", 1)
	return ev.lower(ev.galoisRaised(ct, g), ev.workers)
}

// Conjugate returns the slot-wise complex conjugate (Table 2 Conjugate).
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	sp := ev.startOp("Conjugate", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	return ev.lower(ev.galoisRaised(ct, ev.params.RingQ().GaloisElementConjugate()), ev.workers)
}

// galoisRaised is the raised pair of Rotate and Conjugate: σ_g of both
// halves into pooled scratch, then the key switch of σ_g(c1) with σ_g(c0)
// as its c0. Decomposing the rotated c1 — not gathering the digits of c1
// through σ_g, as the hoisted paths do — is what fixes their rounding.
func (ev *Evaluator) galoisRaised(ct *Ciphertext, g uint64) raisedCt {
	gk := ev.galoisKey(g)
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	c0, c1 := rQ.GetScratch(), rQ.GetScratch()
	rQ.AutomorphismNTT(ct.C0, g, c0)
	rQ.AutomorphismNTT(ct.C1, g, c1)
	r := ev.keySwitch(ct.Level, c1, c0, &gk.SwitchingKey, ct.Scale)
	rQ.PutScratch(c0)
	rQ.PutScratch(c1)
	return r
}

// RotateHoisted rotates one ciphertext by many steps, sharing a single
// Decomp + ModUp across all of them (the standard ModUp hoisting of
// Halevi–Shoup/GAZELLE referenced in §3.2): each step is one keyed step
// that gathers the shared digits and c0 through its Galois permutation (no
// rotated copy exists) and holds its key only for its product, so steps
// may fan out in parallel under any key budget. The map includes step 0 as
// a copy when requested. The steps are independent of each other, so the
// worker budget fans out across them first and falls back to limb-level
// parallelism inside each step.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) map[int]*Ciphertext {
	fan := 0
	for _, k := range steps {
		if ev.params.RingQ().GaloisElement(k) != 1 {
			fan++
		}
	}
	sp := ev.startOp("RotateHoisted", ct.Level, ct.Scale, fan)
	defer ev.endOp(sp)
	level := ct.Level
	digits := ev.decomposeModUp(level, ct.C1, ev.workers)

	type stepJob struct {
		k  int
		gk *GaloisKey
	}
	out := make(map[int]*Ciphertext, len(steps))
	var jobs []stepJob
	for _, k := range steps {
		g := ev.params.RingQ().GaloisElement(k)
		if g == 1 {
			out[k] = ev.copyAt(ct, ct.Level)
			continue
		}
		ev.rec.Add("ckks.rotate", 1)
		// Resolved here so a missing key surfaces on this goroutine, before
		// any step runs. Each key is used by exactly one step's product and
		// held only for it: the sweep runs inside the key budget.
		jobs = append(jobs, stepJob{k: k, gk: ev.galoisKey(g)})
	}

	rQ, conv := ev.params.RingQ().AtLevel(level), ev.params.Converter()
	outer, inner := splitWorkers(ev.workers, len(jobs))
	results := make([]*Ciphertext, len(jobs))
	ev.fanOut(len(jobs), outer, func(idx int) {
		j := jobs[idx]
		r := raisedCt{u: conv.GetPolyQP(level), v: conv.GetPolyQP(level), level: level, scale: ct.Scale}
		lane := []kskLane{{digits: *digits, c0: ct.C0, u: r.u, v: r.v}}
		ev.keyPass(level, lane, rQ.AutomorphismNTTIndex(j.gk.GaloisEl), &j.gk.SwitchingKey, inner)
		results[idx] = ev.lower(r, inner)
	})
	for idx, j := range jobs {
		out[j.k] = results[idx]
	}
	ev.putDigits(digits)
	return out
}

// MatchScaleLevel brings ct to exactly (level, ≈targetScale) so it can be
// added to or subtracted from another ciphertext: the ratio is folded
// into an exact large-constant multiplication at level+1 followed by one
// Rescale. Requires ct.Level > level.
func (ev *Evaluator) MatchScaleLevel(ct *Ciphertext, level int, targetScale float64) *Ciphertext {
	if ct.Level <= level {
		panic(fmt.Sprintf("ckks: MatchScaleLevel level (got=%d, want>%d)", ct.Level, level))
	}
	adj := ct.atLevel(level + 1)
	ratio := targetScale * float64(ev.params.Q()[level+1]) / adj.Scale
	if ratio < 1 {
		panic(fmt.Sprintf("ckks: MatchScaleLevel scale mismatch (got=ratio %.3g, want>=1)", ratio))
	}
	prod := ev.MulByConstReal(adj, 1, ratio)
	defer ev.Release(prod)
	return ev.Rescale(prod)
}

// SwitchKeys re-encrypts ct to the key the switching key targets: the
// generic decryption-key change of §2.2. The ciphertext's message is
// unchanged. It is recorded as a KeySwitch op.
func (ev *Evaluator) SwitchKeys(ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	sp := ev.startOp("KeySwitch", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	return ev.lower(ev.keySwitch(ct.Level, ct.C1, ct.C0, swk, ct.Scale), ev.workers)
}
