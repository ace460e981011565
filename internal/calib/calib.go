// Package calib validates the SimFHE analytic cost model against the
// functional evaluator: it runs real homomorphic operations with a
// memtrace.Tracer attached, replays the recorded limb-granular access
// stream through a parametric cache simulator (memtrace.Sim), and
// compares the *measured* DRAM traffic with the *modeled* traffic the
// simulator predicts for the same parameters and cache capacity.
//
// The calibration runs at small-but-real parameters (N = 2^10, 12 limbs
// by default) with a single worker, so the traced schedule is
// deterministic. The modeled side uses the matching simfhe.Params (same
// limb counts, same 8-byte coefficients, cache capacity expressed in
// limbs) with no MAD optimizations — the unoptimized streaming schedule
// is what the functional library implements.
//
// Beyond per-op totals, the calibration checks the *direction* of MAD
// toggles: the same traces replayed (or re-traced) under a toggled
// configuration must move measured traffic the same way the model says
// it moves.
package calib

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/memtrace"
	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/simfhe"
)

// Config selects the calibration point.
type Config struct {
	LogN  int // ring degree exponent (≥ 10: the model's Validate floor)
	Limbs int // full ciphertext limb count (model L, functional len(LogQ))
	Dnum  int // key-switching digit count

	CacheLimbs int // simulated on-chip capacity, in limbs of 8·N bytes
	LineBytes  int // cache line size (0 = memtrace default, 64)
	Ways       int // set associativity (0 = memtrace default, 8)

	Tolerance float64 // relative tolerance for the gating rows (0.20 = ±20%)

	Diags     int // PtMatVecMult diagonal count
	Rotations int // hoisted-rotation fan-out

	Bootstrap bool // also trace one full bootstrap, reported per phase
}

// DefaultConfig is the calibration point the tests and CI gate on.
func DefaultConfig() Config {
	return Config{
		LogN: 10, Limbs: 12, Dnum: 4,
		CacheLimbs: 6, LineBytes: 64, Ways: 8,
		Tolerance: 0.20,
		Diags:     8, Rotations: 8,
	}
}

// Alpha mirrors simfhe.Params.Alpha: limbs per digit = raised special
// limbs.
func (c Config) Alpha() int { return (c.Limbs + c.Dnum) / c.Dnum }

// LimbBytes is the size of one limb row: 8·N bytes.
func (c Config) LimbBytes() uint64 { return 8 << c.LogN }

// Breakdown is DRAM traffic split by operand class, in bytes. The model
// folds functional scratch into its Ct ("working limb") class, so
// tolerance comparisons use Total; the split is diagnostic.
type Breakdown struct {
	Ct, Key, Pt, Scratch uint64
}

// Total sums the classes.
func (b Breakdown) Total() uint64 { return b.Ct + b.Key + b.Pt + b.Scratch }

func modelBreakdown(c simfhe.Cost) Breakdown {
	return Breakdown{Ct: c.CtRead + c.CtWrite, Key: c.KeyRead, Pt: c.PtRead}
}

func measuredBreakdown(t memtrace.Traffic) Breakdown {
	cls := func(c memtrace.Class) uint64 { return t.ReadBytes[c] + t.WriteBytes[c] }
	return Breakdown{
		Ct:      cls(memtrace.ClassCt),
		Key:     cls(memtrace.ClassKey),
		Pt:      cls(memtrace.ClassPt),
		Scratch: cls(memtrace.ClassScratch),
	}
}

// Row is one op's modeled-vs-measured comparison.
type Row struct {
	Op       string
	Modeled  Breakdown
	Measured Breakdown
	DeltaPct float64 // (measured − modeled) / modeled · 100, on totals
	// WithinTol reports |DeltaPct| ≤ 100·Tolerance.
	WithinTol bool
	// Informational rows do not gate AllWithinTolerance (the acceptance
	// bar covers the unoptimized Mult and Rescale; the rest is reported
	// for context, with deviations discussed in docs/OBSERVABILITY.md).
	Informational bool
	Note          string
}

// ToggleRow checks that a MAD optimization moves measured traffic in the
// modeled direction.
type ToggleRow struct {
	Name                      string
	ModeledBase, ModeledOpt   uint64
	MeasuredBase, MeasuredOpt uint64
	ModeledPct, MeasuredPct   float64 // opt vs base, in percent
	Agree                     bool    // sign(modeled Δ) == sign(measured Δ)
	Note                      string
}

func pct(base, opt uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(opt) - float64(base)) / float64(base)
}

func newToggleRow(name string, mBase, mOpt simfhe.Cost, tBase, tOpt memtrace.Traffic, note string) ToggleRow {
	r := ToggleRow{
		Name:         name,
		ModeledBase:  mBase.Bytes(),
		ModeledOpt:   mOpt.Bytes(),
		MeasuredBase: tBase.Total(),
		MeasuredOpt:  tOpt.Total(),
		Note:         note,
	}
	r.ModeledPct = pct(r.ModeledBase, r.ModeledOpt)
	r.MeasuredPct = pct(r.MeasuredBase, r.MeasuredOpt)
	r.Agree = (r.ModeledPct < 0) == (r.MeasuredPct < 0)
	return r
}

// Report is the calibration result.
type Report struct {
	Config     Config
	Functional string // functional parameter description
	Model      string // model parameter description
	Rows       []Row
	Toggles    []ToggleRow
}

// AllWithinTolerance reports whether every gating row met the tolerance
// and every toggle reproduced the modeled direction.
func (r *Report) AllWithinTolerance() bool {
	for _, row := range r.Rows {
		if !row.Informational && !row.WithinTol {
			return false
		}
	}
	for _, t := range r.Toggles {
		if !t.Agree {
			return false
		}
	}
	return true
}

// Counters flattens the report into metric counters for the obs
// Prometheus exporter.
func (r *Report) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, row := range r.Rows {
		p := "calib_" + row.Op
		out[p+"_modeled_bytes"] = row.Modeled.Total()
		out[p+"_measured_bytes"] = row.Measured.Total()
		out[p+"_measured_ct_bytes"] = row.Measured.Ct
		out[p+"_measured_key_bytes"] = row.Measured.Key
		out[p+"_measured_pt_bytes"] = row.Measured.Pt
		out[p+"_measured_scratch_bytes"] = row.Measured.Scratch
	}
	for _, t := range r.Toggles {
		p := "calib_toggle_" + t.Name
		out[p+"_modeled_base_bytes"] = t.ModeledBase
		out[p+"_modeled_opt_bytes"] = t.ModeledOpt
		out[p+"_measured_base_bytes"] = t.MeasuredBase
		out[p+"_measured_opt_bytes"] = t.MeasuredOpt
		if t.Agree {
			out[p+"_agree"] = 1
		} else {
			out[p+"_agree"] = 0
		}
	}
	return out
}

// WriteTable renders the human-readable calibration report.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "== Model validation: measured (trace + cache sim) vs modeled DRAM traffic ==\n")
	fmt.Fprintf(w, "   functional: %s\n", r.Functional)
	fmt.Fprintf(w, "   model:      %s, cache %d limbs (%d KiB), line %dB, %d-way\n",
		r.Model, r.Config.CacheLimbs,
		uint64(r.Config.CacheLimbs)*r.Config.LimbBytes()/1024,
		r.Config.LineBytes, r.Config.Ways)
	fmt.Fprintf(w, "%-22s %12s %12s %8s %6s   %s\n",
		"op", "modeled", "measured", "delta", "ok", "measured by class (ct/key/pt/scratch)")
	for _, row := range r.Rows {
		ok := "PASS"
		if !row.WithinTol {
			ok = "FAIL"
		}
		if row.Informational {
			ok = "info"
		}
		fmt.Fprintf(w, "%-22s %11.2fK %11.2fK %+7.1f%% %6s   %.1fK/%.1fK/%.1fK/%.1fK\n",
			row.Op,
			float64(row.Modeled.Total())/1024, float64(row.Measured.Total())/1024,
			row.DeltaPct, ok,
			float64(row.Measured.Ct)/1024, float64(row.Measured.Key)/1024,
			float64(row.Measured.Pt)/1024, float64(row.Measured.Scratch)/1024)
		if row.Note != "" {
			fmt.Fprintf(w, "%-22s   %s\n", "", row.Note)
		}
	}
	if len(r.Toggles) > 0 {
		fmt.Fprintf(w, "\n-- MAD toggle directions --\n")
		fmt.Fprintf(w, "%-16s %22s %22s %6s\n", "toggle", "modeled base->opt", "measured base->opt", "agree")
		for _, t := range r.Toggles {
			agree := "YES"
			if !t.Agree {
				agree = "NO"
			}
			fmt.Fprintf(w, "%-16s %9.1fK %+5.1f%% %9.1fK %+5.1f%% %8s\n",
				t.Name,
				float64(t.ModeledBase)/1024, t.ModeledPct,
				float64(t.MeasuredBase)/1024, t.MeasuredPct,
				agree)
			if t.Note != "" {
				fmt.Fprintf(w, "%-16s   %s\n", "", t.Note)
			}
		}
	}
}

// harness owns the functional setup of one calibration run.
type harness struct {
	cfg    Config
	params *ckks.Parameters
	ev     *ckks.Evaluator
	tr     *memtrace.Tracer
	geo    memtrace.Geometry

	ctA, ctB *ckks.Ciphertext
	lt       *ckks.LinearTransform
	rotSteps []int
}

// geometry builds the memtrace cache geometry for a capacity in limbs.
func (c Config) geometry(limbs int) memtrace.Geometry {
	return memtrace.Geometry{
		CapacityBytes: uint64(limbs) * c.LimbBytes(),
		LineBytes:     c.LineBytes,
		Ways:          c.Ways,
	}
}

// modelParams is the simfhe.Params matching the functional setup.
func (c Config) modelParams() simfhe.Params {
	return simfhe.Params{
		LogN: c.LogN, LogQ: 40, L: c.Limbs, Dnum: c.Dnum,
		FFTIter: 3, SineDegree: 31, DoubleAngle: 3,
	}
}

// modelCtx builds a model context at the configured cache with the given
// optimizations; cacheLimbs overrides the capacity (for toggle rows that
// model a larger cache).
func (c Config) modelCtx(opts simfhe.OptSet, cacheLimbs int) simfhe.Ctx {
	p := c.modelParams()
	cache := simfhe.CacheConfig{Bytes: uint64(cacheLimbs) * p.LimbBytes()}
	return simfhe.NewCtx(p, cache, opts)
}

func newHarness(cfg Config) (*harness, error) {
	logQ := make([]int, cfg.Limbs)
	logQ[0] = 48
	for i := 1; i < cfg.Limbs; i++ {
		logQ[i] = 40
	}
	logP := make([]int, cfg.Alpha())
	for i := range logP {
		logP[i] = 50
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: cfg.LogN, LogQ: logQ, LogP: logP, LogScale: 40,
	})
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}

	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe calibration deterministic")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	rlk := kg.GenRelinearizationKey(sk, false)

	enc := ckks.NewEncoder(params)
	n := params.Slots()
	diags := make(map[int][]complex128, cfg.Diags)
	for d := 0; d < cfg.Diags; d++ {
		vec := make([]complex128, n)
		for t := range vec {
			vec[t] = complex(float64((d+t)%7)/8+0.1, 0)
		}
		diags[d] = vec
	}
	// An explicit split (the model's own is √diags too): the computed one
	// would follow the evaluator's key-product economics, not the model's.
	n1 := int(math.Round(math.Sqrt(float64(cfg.Diags))))
	lt := ckks.NewLinearTransform(enc, diags, params.MaxLevel(), params.Scale(), n1, false)

	stepSet := map[int]bool{}
	rotSteps := make([]int, 0, cfg.Rotations)
	for k := 1; k <= cfg.Rotations; k++ {
		rotSteps = append(rotSteps, k)
		stepSet[k] = true
	}
	for _, s := range lt.RotationSteps() {
		stepSet[s] = true
	}
	steps := make([]int, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	gks := kg.GenRotationKeys(steps, sk, false)

	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks})
	// One worker: the traced schedule is serial and deterministic.
	ev.SetWorkers(1)

	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	mkVec := func(phase float64) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(0.5*math.Cos(phase+float64(i)), 0.25*math.Sin(phase-float64(i)))
		}
		return v
	}
	ctA := encryptor.Encrypt(enc.Encode(mkVec(0.3)))
	ctB := encryptor.Encrypt(enc.Encode(mkVec(1.1)))

	h := &harness{
		cfg: cfg, params: params, ev: ev,
		ctA: ctA, ctB: ctB, lt: lt, rotSteps: rotSteps,
		geo: cfg.geometry(cfg.CacheLimbs),
	}

	// Untraced warm-up: lazy state (Galois-key digit expansion, scratch
	// pools) settles before the tracer attaches, so traced windows hold
	// only the steady-state schedule.
	_ = ev.Rescale(ev.MulRelin(ctA, ctB))
	_ = ev.Rotate(ctA, 1)
	_ = ev.RotateHoisted(ctA, rotSteps)
	_ = ev.EvalLinearTransform(ctA, lt)

	h.tr = memtrace.New()
	ev.SetTracer(h.tr)
	return h, nil
}

// trace records the events of one op invocation.
func (h *harness) trace(op func()) []memtrace.Access {
	start := h.tr.Len()
	op()
	return h.tr.Slice(start, h.tr.Len())
}

// measure replays events at the default geometry.
func (h *harness) measure(events []memtrace.Access) memtrace.Traffic {
	return memtrace.Measure(events, h.geo, h.tr.Classify)
}

func (h *harness) row(op string, modeled simfhe.Cost, events []memtrace.Access, informational bool, note string) Row {
	t := h.measure(events)
	row := Row{
		Op:            op,
		Modeled:       modelBreakdown(modeled),
		Measured:      measuredBreakdown(t),
		Informational: informational,
		Note:          note,
	}
	m, g := float64(row.Modeled.Total()), float64(row.Measured.Total())
	if m > 0 {
		row.DeltaPct = 100 * (g - m) / m
	}
	row.WithinTol = math.Abs(row.DeltaPct) <= 100*h.cfg.Tolerance
	return row
}

// Run executes the calibration and returns the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.20
	}
	mp := cfg.modelParams()
	if err := mp.Validate(); err != nil {
		return nil, fmt.Errorf("calib: model side: %w", err)
	}
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	mctx := cfg.modelCtx(simfhe.NoOpts(), cfg.CacheLimbs)

	rep := &Report{
		Config: cfg,
		Functional: fmt.Sprintf("ckks N=2^%d, %d Q-limbs + %d P-limbs, dnum=%d, workers=1",
			cfg.LogN, cfg.Limbs, cfg.Alpha(), cfg.Dnum),
		Model: mp.String(),
	}

	// --- Per-op rows. Gating: Mult and Rescale (the acceptance bar).
	multEvents := h.trace(func() { _ = h.ev.Rescale(h.ev.MulRelin(h.ctA, h.ctB)) })
	rep.Rows = append(rep.Rows, h.row("mult", mctx.Mult(cfg.Limbs), multEvents, false,
		"functional MulRelin+Rescale vs model Mult (tensor, relin, recombine, rescale ×2)"))
	// The merged Mul, for the moddown_merge toggle below.
	mergedEvents := h.trace(func() { _ = h.ev.Mul(h.ctA, h.ctB) })

	// Rescale window: a fresh unrescaled product, then window only the
	// Rescale call itself.
	prod := h.ev.MulRelin(h.ctA, h.ctB)
	rescaleEvents := h.trace(func() { _ = h.ev.Rescale(prod) })
	rep.Rows = append(rep.Rows, h.row("rescale", mctx.RescalePoly(cfg.Limbs).Times(2), rescaleEvents, false,
		"both ciphertext halves rescaled (model RescalePoly ×2)"))

	// NTT round trip: iNTT + NTT over one ciphertext polynomial, traced
	// at limb granularity and gated. The model charges (N/2)·log N
	// butterflies per limb and one read+write sweep of the limb per DRAM
	// pass; the pass count comes from the kernel's own schedule
	// (ring.NTTPasses: 1 single-phase, 2 blocked), so the cache-blocked
	// kernel cannot silently change its traffic contract without this row
	// catching it.
	nttPasses := ring.NTTPasses(1 << cfg.LogN)
	nttPoly := h.ctA.C0.CopyNew()
	rQ := h.params.RingQ()
	nttEvents := h.trace(func() {
		rQ.INTTPoly(nttPoly)
		rQ.NTTPoly(nttPoly)
	})
	rep.Rows = append(rep.Rows, h.row("ntt_roundtrip",
		mctx.NTTPoly(cfg.Limbs, nttPasses).Times(2), nttEvents, false,
		fmt.Sprintf("iNTT+NTT on one poly, %d limbs, %d DRAM pass(es) per transform (ring.NTTPasses)",
			cfg.Limbs, nttPasses)))

	rotEvents := h.trace(func() { _ = h.ev.Rotate(h.ctA, 1) })
	rep.Rows = append(rep.Rows, h.row("rotate", mctx.Rotate(cfg.Limbs), rotEvents, false, ""))

	hoistEvents := h.trace(func() { _ = h.ev.RotateHoisted(h.ctA, h.rotSteps) })
	rep.Rows = append(rep.Rows, h.row(
		fmt.Sprintf("rotate_hoisted_x%d", cfg.Rotations),
		mctx.HoistedRotations(cfg.Limbs, cfg.Rotations), hoistEvents, false, ""))

	matvecEvents := h.trace(func() { _ = h.ev.EvalLinearTransform(h.ctA, h.lt) })
	rep.Rows = append(rep.Rows, h.row(
		fmt.Sprintf("ptmatvec_d%d", cfg.Diags),
		mctx.PtMatVecMult(cfg.Limbs, cfg.Diags), matvecEvents, true,
		"informational: the functional giant step is a full key switch (ModDown pair, ModUp, key product); the model's baseline ModDowns every baby step and its ModDownHoist price assumes a giant rotation with no ModUp/ModDown, which no RNS implementation can run — measured lands between the two"))

	// --- Toggle 1: CacheBeta. The same hoisted-rotation trace replayed
	// at a cache large enough to keep the raised digits resident across
	// rotations must drop measured traffic, as the model's O(β) caching
	// predicts. The model needs ≥ 2·dnum limbs for the toggle to
	// survive Effective; the measured cache must hold the full raised
	// digit set plus one rotation's streaming working set, so size it
	// generously.
	bigLimbs := 4 * mp.Beta(cfg.Limbs) * mp.RaisedLimbs(cfg.Limbs)
	if min := 2 * cfg.Dnum; bigLimbs < min {
		bigLimbs = min
	}
	mBase := cfg.modelCtx(simfhe.NoOpts(), cfg.CacheLimbs).HoistedRotations(cfg.Limbs, cfg.Rotations)
	mOpt := cfg.modelCtx(simfhe.OptSet{CacheBeta: true}, bigLimbs).HoistedRotations(cfg.Limbs, cfg.Rotations)
	tBase := h.measure(hoistEvents)
	tOpt := memtrace.Measure(hoistEvents, cfg.geometry(bigLimbs), h.tr.Classify)
	rep.Toggles = append(rep.Toggles, newToggleRow("cache_beta", mBase, mOpt, tBase, tOpt,
		fmt.Sprintf("same trace, %d-limb vs %d-limb cache; digit re-reads become hits", cfg.CacheLimbs, bigLimbs)))

	// --- Toggle 2: CacheAlpha. The Mult trace replayed at a cache that
	// holds the O(α) key-switching working set (model threshold 2α+3
	// limbs): ModUp digit scratch and basis-extension intermediates stay
	// resident instead of making the DRAM round trip.
	alphaLimbs := 2*mp.Alpha() + 3
	if alphaLimbs <= cfg.CacheLimbs {
		alphaLimbs = cfg.CacheLimbs + mp.Alpha()
	}
	mBase = cfg.modelCtx(simfhe.NoOpts(), cfg.CacheLimbs).Mult(cfg.Limbs)
	mOpt = cfg.modelCtx(simfhe.OptSet{CacheAlpha: true}, alphaLimbs).Mult(cfg.Limbs)
	tBase = h.measure(multEvents)
	tOpt = memtrace.Measure(multEvents, cfg.geometry(alphaLimbs), h.tr.Classify)
	rep.Toggles = append(rep.Toggles, newToggleRow("cache_alpha", mBase, mOpt, tBase, tOpt,
		fmt.Sprintf("same Mult trace, %d-limb vs %d-limb cache; O(α) ModUp intermediates stay resident", cfg.CacheLimbs, alphaLimbs)))

	// --- Toggle 3: KeyCompression. The model halves key-read traffic:
	// only the b halves of the switching-key digits stream from DRAM, the
	// uniform a halves are regenerated on chip from a 32-byte seed. The
	// functional counterpart is the key vault: a seed-compressed Galois
	// key whose a halves are demand-materialized. In the trace, vault
	// expansion is a write (write-allocate without fetch: generated, not
	// read) and vault eviction is a Discard (dropped, never written back),
	// so at a replay capacity that holds the key working set — the
	// capacity IS the vault budget, on-chip SRAM in the accelerator
	// reading of §3.2 — the a halves contribute zero DRAM key traffic,
	// while the materialized baseline pays a compulsory read per limb.
	// Replay capacity: the full rotate working set — both key halves
	// (2·β·raised), the raised decomposition digits (β·raised), the
	// accumulator pair and ciphertext limbs — so neither side suffers
	// capacity evictions and the only DRAM delta is the key stream
	// itself. The vault materializes whole digits up front (digit
	// granularity, not the per-limb streaming of a hardware regenerator),
	// so at a tighter capacity the expanded a limbs would be evicted
	// dirty before use and charged twice.
	keyLimbs := 4*mp.Beta(cfg.Limbs)*mp.RaisedLimbs(cfg.Limbs) + 4*mp.Alpha() + 2*cfg.Limbs
	compEvents, err := compressedRotateTrace(cfg, h)
	if err != nil {
		return nil, err
	}
	mBase = cfg.modelCtx(simfhe.NoOpts(), keyLimbs).Rotate(cfg.Limbs)
	mOpt = cfg.modelCtx(simfhe.OptSet{KeyCompression: true}, keyLimbs).Rotate(cfg.Limbs)
	tBase = memtrace.Measure(rotEvents, cfg.geometry(keyLimbs), h.tr.Classify)
	tOptC := memtrace.Measure(compEvents.events, cfg.geometry(keyLimbs), compEvents.classify)
	rep.Toggles = append(rep.Toggles, newToggleRow("key_compress", mBase, mOpt, tBase, tOptC,
		fmt.Sprintf("Rotate with materialized vs vault-expanded keys, %d-limb replay (= key working set); a halves regenerate on chip", keyLimbs)))

	// --- Toggle 4: ModDownMerge (§3.2, Figure 4(c)). Off is the unfused
	// composition the mult row gates, on is the evaluator's Mul: the lifts
	// of d0 and d1 join the raised pair and one division by P·q_ℓ per half
	// replaces the ModDown pair, the recombination adds and the Rescale.
	// Same cache on both sides; the delta is the ℓ+1 transforms per half
	// that no longer make their round trip, and the intermediate
	// ciphertext that is never written.
	mBase = cfg.modelCtx(simfhe.NoOpts(), cfg.CacheLimbs).Mult(cfg.Limbs)
	mOpt = cfg.modelCtx(simfhe.OptSet{ModDownMerge: true}, cfg.CacheLimbs).Mult(cfg.Limbs)
	rep.Toggles = append(rep.Toggles, newToggleRow("moddown_merge", mBase, mOpt, h.measure(multEvents), h.measure(mergedEvents),
		"Rescale(MulRelin) vs Mul, same cache; one division by P·q_ℓ per half closes the product"))

	if cfg.Bootstrap {
		if err := bootstrapRows(cfg, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// compressedTrace bundles a traced event window with the tracer's
// classifier (classification is per-tracer: the compressed run has its
// own buffers).
type compressedTrace struct {
	events   []memtrace.Access
	classify func(uintptr) memtrace.Class
}

// compressedRotateTrace traces one Rotate on an evaluator whose Galois
// key is seed-compressed, with a cold key vault: the digit expansions
// land inside the traced window as on-chip writes, the b halves stream
// as DRAM key reads — the functional realization of the model's
// KeyCompression toggle.
func compressedRotateTrace(cfg Config, h *harness) (compressedTrace, error) {
	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe calibration deterministic")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(h.params, src)
	sk := kg.GenSecretKeySparse(16)
	gks := kg.GenGaloisKeys([]int{1}, sk)
	ev := ckks.NewEvaluator(h.params, &ckks.EvaluationKeySet{Galois: gks})
	ev.SetWorkers(1)

	enc := ckks.NewEncoder(h.params)
	msg := make([]complex128, h.params.Slots())
	for i := range msg {
		msg[i] = complex(float64(i%13)/16, 0)
	}
	ct := ckks.NewSecretKeyEncryptor(h.params, sk, src).Encrypt(enc.Encode(msg))

	// Untraced warm-up settles the scratch pools, then the vault is
	// flushed so the traced Rotate re-materializes every digit.
	_ = ev.Rotate(ct, 1)
	ev.FlushKeyVault()

	tr := memtrace.New()
	ev.SetTracer(tr)
	_ = ev.Rotate(ct, 1)
	// Release the vault inside the window: the a halves are scratchpad
	// contents — the flush records Discards, so the replay drops their
	// lines without a DRAM writeback. Without this the end-of-replay
	// Flush would charge the regenerated (dirty, never-read-from-DRAM)
	// limbs as key write traffic and erase the toggle's saving.
	ev.FlushKeyVault()
	return compressedTrace{events: tr.Slice(0, tr.Len()), classify: tr.Classify}, nil
}

// bootstrapRows traces one full bootstrap at bench-scale parameters
// (17 Q-limbs — the calibration chain is too short for the pipeline's
// depth) and reports measured bytes per phase next to the model's
// per-phase prediction. Informational: the functional EvalMod shape
// (Chebyshev degree 31, 3 double-angle steps) and DFT split differ from
// the model's closed forms in more ways than the ±tolerance bar covers.
func bootstrapRows(cfg Config, rep *Report) error {
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: cfg.LogN, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		return fmt.Errorf("calib: bootstrap: %w", err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe calibration deterministic")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		return fmt.Errorf("calib: bootstrap: %w", err)
	}
	btp.Evaluator().SetWorkers(1)
	enc := ckks.NewEncoder(params)
	ct := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(make([]complex128, params.Slots())))
	ct = btp.Evaluator().DropLevel(ct, 0)

	tr := memtrace.New()
	btp.Evaluator().SetTracer(tr)
	_ = btp.Bootstrap(ct)

	// Phase windows from the stream marks.
	marks := tr.Marks()
	idx := map[string]int{}
	for _, m := range marks {
		idx[m.Label] = m.Index
	}
	// Model at L=17; dnum chosen so α matches the 3 special limbs.
	mp := simfhe.Params{LogN: cfg.LogN, LogQ: 40, L: 17, Dnum: 6,
		FFTIter: 3, SineDegree: 31, DoubleAngle: 3}
	mcache := simfhe.CacheConfig{Bytes: uint64(cfg.CacheLimbs) * mp.LimbBytes()}
	bd := simfhe.NewCtx(mp, mcache, simfhe.NoOpts()).Bootstrap()

	phases := []struct {
		name, from, to string
		modeled        simfhe.Cost
	}{
		{"boot_modraise", "bootstrap.ModRaise", "bootstrap.CoeffToSlot", bd.ModRaise},
		{"boot_coeff2slot", "bootstrap.CoeffToSlot", "bootstrap.EvalMod", bd.CoeffToSlot},
		{"boot_evalmod", "bootstrap.EvalMod", "bootstrap.SlotToCoeff", bd.EvalMod},
		{"boot_slot2coeff", "bootstrap.SlotToCoeff", "bootstrap.Done", bd.SlotToCoeff},
	}
	geo := cfg.geometry(cfg.CacheLimbs)
	for _, ph := range phases {
		from, okF := idx[ph.from]
		to, okT := idx[ph.to]
		if !okF || !okT {
			return fmt.Errorf("calib: bootstrap trace missing mark %s/%s", ph.from, ph.to)
		}
		t := memtrace.Measure(tr.Slice(from, to), geo, tr.Classify)
		row := Row{
			Op:            ph.name,
			Modeled:       modelBreakdown(ph.modeled),
			Measured:      measuredBreakdown(t),
			Informational: true,
			Note:          "phase window from stream marks; model EvalMod/DFT shapes differ (see docs/OBSERVABILITY.md)",
		}
		if m := float64(row.Modeled.Total()); m > 0 {
			row.DeltaPct = 100 * (float64(row.Measured.Total()) - m) / m
		}
		row.WithinTol = math.Abs(row.DeltaPct) <= 100*cfg.Tolerance
		rep.Rows = append(rep.Rows, row)
	}
	return nil
}
