// Package calib validates the SimFHE analytic cost model against the
// functional evaluator: it runs real homomorphic operations with the
// cost ledger, the span recorder and a memtrace.Tracer attached, replays
// the recorded limb-granular access stream through the model's on-chip
// capacity (memtrace.Measure), and compares the *measured* DRAM traffic
// with the traffic the ledger *predicts* for the same spans.
//
// There is one path. The unit is the top-level op span: a span the
// ledger prices with no priced ancestor. A row's prediction is the sum
// of its top-level spans' pred.bytes; its measurement is the replay of
// its windows — one per probe call, or one per span. The ledger
// (internal/obs/ledger) is the only place an op or a parameter set maps
// to the model; the rows no priced span covers yet read their cost from
// the fixture's own ledger point, one table entry each.
//
// Two chains are traced, each built by newFixture with one worker (the
// traced schedule is deterministic), seed-compressed keys and a warm key
// vault: the calibration chain (N = 2^logN, 12 + 4 limbs) for
// the probe rows and toggles, and the bootstrap chain (17 + 3 limbs) for
// one row per priced op kind and one per bootstrap phase.
//
// Beyond per-row totals, the report checks the *direction* of MAD
// toggles: the same probe's spans re-priced at a second ledger point and
// replayed at that point's capacity must move measured traffic the way
// the model says it moves.
package calib

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/fherr"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/prng"
	"repro/internal/simfhe"
)

// Config is the calibration point a report states. The ring degree is
// Run's one input; every other field is one of the constants below, the
// same at every degree. The bootstrap chain shares the ring degree, cache
// capacity, tolerance and hoisted fan-out.
type Config struct {
	LogN  int `json:"log_n"` // ring degree exponent, in [minLogN, maxLogN]
	Limbs int `json:"limbs"` // calibration-chain Q-limb count (model L)
	Dnum  int `json:"dnum"`  // calibration-chain key-switching digit count

	CacheLimbs int `json:"cache_limbs"` // simulated on-chip capacity, in limbs of 8·N bytes

	Tolerance float64 `json:"tolerance"` // relative tolerance of every gated row (0.20 = ±20%)

	Diags     int `json:"diags"`     // PtMatVecMult diagonal count
	Rotations int `json:"rotations"` // hoisted-rotation fan-out
}

// The calibration point's constants. The cache is at least one limb, so
// a limb-wise kernel's phases share one DRAM pass at every degree.
const (
	calLimbs, calDnum = 12, 4
	cacheLimbs        = ledger.DefaultCacheLimbs
	tolerance         = 0.20
	diags, rotations  = 8, 8
)

// The ring degrees Run accepts: where the model's domain (simfhe.Params,
// logN 9–18) and the functional library's (ckks, logN 4–17) overlap.
const minLogN, maxLogN = 9, 17

// The bootstrap chain: the calibration chain is too short for the
// pipeline's depth. bootProbes explicit Mul + RotateHoisted pairs run
// ahead of the bootstrap: the pipeline rotates only inside its linear
// transforms, which carry no prediction, and its Mults all sit inside
// EvalMod; the probes are the plain instances of both kinds.
const (
	bootQLimbs, bootPLimbs = 17, 3
	bootProbes             = 3
)

// alpha is the calibration chain's special-limb count: limbs per digit.
func (c Config) alpha() int { return (c.Limbs + c.Dnum) / c.Dnum }

func (c Config) limbBytes() uint64 { return 8 << c.LogN }

// Breakdown is DRAM traffic split by operand class, in bytes. The model
// folds functional scratch into its working-limb traffic, so tolerance
// comparisons use Total; the split is diagnostic.
type Breakdown struct {
	Ct      uint64 `json:"ct"`
	Key     uint64 `json:"key"`
	Pt      uint64 `json:"pt"`
	Scratch uint64 `json:"scratch"`
}

// Total sums the classes.
func (b Breakdown) Total() uint64 { return b.Ct + b.Key + b.Pt + b.Scratch }

func (b Breakdown) plus(t memtrace.Traffic) Breakdown {
	cls := func(c memtrace.Class) uint64 { return t.ReadBytes[c] + t.WriteBytes[c] }
	return Breakdown{
		Ct:      b.Ct + cls(memtrace.ClassCt),
		Key:     b.Key + cls(memtrace.ClassKey),
		Pt:      b.Pt + cls(memtrace.ClassPt),
		Scratch: b.Scratch + cls(memtrace.ClassScratch),
	}
}

// Row is one predicted-vs-measured comparison.
type Row struct {
	Name      string    `json:"name"`
	Count     int       `json:"count"`     // top-level op spans in the row's windows
	Products  int       `json:"products"`  // their op.fanout summed, a span without one counting 1: a batched Mult's products
	Pred      uint64    `json:"pred"`      // ledger-predicted DRAM bytes
	Meas      Breakdown `json:"meas"`      // replayed DRAM bytes by operand class
	DeltaPct  float64   `json:"delta_pct"` // (measured − predicted) / predicted · 100
	Gated     bool      `json:"gated"`     // counts toward Gate; otherwise informational
	WithinTol bool      `json:"within_tol"`
	// Limb-transform counts: the model's vs the kernel counters' over the
	// same windows. Equal means no window leaks work across op boundaries.
	PredNTT uint64 `json:"pred_ntt"`
	MeasNTT uint64 `json:"meas_ntt"`
	Note    string `json:"note,omitempty"`
}

// Toggle checks that a MAD optimization moves measured traffic in the
// predicted direction: Opt is a probe's spans re-priced at the toggle's
// ledger point and replayed at its capacity, Base the same at the
// baseline point.
type Toggle struct {
	Name  string `json:"name"`
	Base  Row    `json:"base"`
	Opt   Row    `json:"opt"`
	Agree bool   `json:"agree"` // sign(predicted Δ) == sign(measured Δ)
}

// Report is the validation result.
type Report struct {
	Config  Config   `json:"config"`
	Rows    []Row    `json:"rows"`
	Toggles []Toggle `json:"toggles"`
	// SkippedSpans counts top-level op spans without a prediction (level
	// outside the model's domain) or a trace window.
	SkippedSpans int `json:"skipped_spans"`
}

// Gate reports whether every gated row met the tolerance and every
// toggle reproduced the predicted direction.
func (r *Report) Gate() bool {
	for _, row := range r.Rows {
		if row.Gated && !row.WithinTol {
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
	put := func(p string, row Row) {
		out[p+"_predicted_bytes"] = row.Pred
		out[p+"_measured_bytes"] = row.Meas.Total()
		out[p+"_measured_ct_bytes"] = row.Meas.Ct
		out[p+"_measured_key_bytes"] = row.Meas.Key
		out[p+"_measured_pt_bytes"] = row.Meas.Pt
		out[p+"_measured_scratch_bytes"] = row.Meas.Scratch
	}
	for _, row := range r.Rows {
		put("calib_"+row.Name, row)
	}
	for _, t := range r.Toggles {
		p := "calib_toggle_" + t.Name
		put(p+"_base", t.Base)
		put(p+"_opt", t.Opt)
		out[p+"_agree"] = 0
		if t.Agree {
			out[p+"_agree"] = 1
		}
	}
	return out
}

func pct(base, opt uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(opt) - float64(base)) / float64(base)
}

// WriteTable renders the human-readable report.
func (r *Report) WriteTable(w io.Writer) {
	c := r.Config
	fmt.Fprintf(w, "== Model validation: ledger-predicted vs measured (trace + cache sim) DRAM traffic ==\n")
	fmt.Fprintf(w, "   chains: N=2^%d, workers=1, seed-compressed keys, warm vault; calibration %d Q + %d P limbs (dnum=%d); bootstrap %d Q + %d P limbs, %d Mul and RotateHoisted×%d probes, then one bootstrap\n",
		c.LogN, c.Limbs, c.alpha(), c.Dnum, bootQLimbs, bootPLimbs, bootProbes, c.Rotations)
	fmt.Fprintf(w, "   cache:  %d limbs (%d KiB), fully associative LRU, %dB lines; gated rows ±%.0f%%\n",
		c.CacheLimbs, uint64(c.CacheLimbs)*c.limbBytes()/1024, memtrace.LineBytes, 100*c.Tolerance)
	fmt.Fprintf(w, "   spans:  a row prices its top-level op spans (priced, no priced ancestor); %d without a prediction\n", r.SkippedSpans)
	fmt.Fprintf(w, "%-22s %5s %12s %12s %8s %6s %11s   %s\n",
		"row", "count", "predicted", "measured", "delta", "ok", "ntt p/m", "measured by class (ct/key/pt/scratch)")
	for _, row := range r.Rows {
		ok := "info"
		if row.Gated {
			ok = "PASS"
			if !row.WithinTol {
				ok = "FAIL"
			}
		}
		m := row.Meas
		fmt.Fprintf(w, "%-22s %5d %11.2fK %11.2fK %+7.1f%% %6s %11s   %.1fK/%.1fK/%.1fK/%.1fK\n",
			row.Name, row.Count, float64(row.Pred)/1024, float64(m.Total())/1024, row.DeltaPct, ok,
			fmt.Sprintf("%d/%d", row.PredNTT, row.MeasNTT),
			float64(m.Ct)/1024, float64(m.Key)/1024, float64(m.Pt)/1024, float64(m.Scratch)/1024)
		if row.Note != "" {
			fmt.Fprintf(w, "%-22s   %s\n", "", row.Note)
		}
	}
	if len(r.Toggles) > 0 {
		fmt.Fprintf(w, "\n-- MAD toggle directions: one probe's spans at two ledger points --\n")
		fmt.Fprintf(w, "%-16s %22s %22s %6s\n", "toggle", "predicted base->opt", "measured base->opt", "agree")
		for _, t := range r.Toggles {
			agree := "YES"
			if !t.Agree {
				agree = "NO"
			}
			fmt.Fprintf(w, "%-16s %9.1fK %+5.1f%% %9.1fK %+5.1f%% %8s\n",
				t.Name,
				float64(t.Base.Pred)/1024, pct(t.Base.Pred, t.Opt.Pred),
				float64(t.Base.Meas.Total())/1024, pct(t.Base.Meas.Total(), t.Opt.Meas.Total()),
				agree)
			if t.Opt.Note != "" {
				fmt.Fprintf(w, "%-16s   %s\n", "", t.Opt.Note)
			}
		}
	}
}

// chain is one functional parameter point of the report.
type chain struct {
	qLimbs, pLimbs int
	boot           bool // key and run a Bootstrapper; otherwise the probes' rlk and Galois keys
}

// probe is one row spec: a call traced as one window (nil for rows whose
// windows are spans), and for the rows no priced op span covers yet, the
// cost read from the fixture's model point.
type probe struct {
	name  string
	call  func()
	gated bool
	model func(simfhe.Ctx) simfhe.Cost
	note  string
}

// window is one stretch [begin, end) of the access stream and the limb
// transforms the kernels ran in it.
type window struct {
	begin, end int
	ntt        uint64
}

// fixture owns the functional setup of one chain.
type fixture struct {
	cfg    Config
	params *ckks.Parameters
	ev     *ckks.Evaluator
	model  *ledger.Model
	rec    *obs.Recorder
	tr     *memtrace.Tracer
	a, b   *ckks.Ciphertext
	probes []probe
	top    []obs.SpanRecord // top-level op spans, once traced
}

// newFixture is the one builder of a chain's functional setup:
// parameters, a seeded keygen, seed-compressed keys, the evaluator at one
// worker, the ledger model, and the chain's probes — run once untraced,
// so lazy state (key-vault digit expansion, scratch pools) settles before
// the recorder and the tracer attach and traced windows hold only the
// steady-state schedule.
func newFixture(cfg Config, c chain) (*fixture, error) {
	logQ := make([]int, c.qLimbs)
	for i := range logQ {
		logQ[i] = 40
	}
	logQ[0] = 48
	logP := make([]int, c.pLimbs)
	for i := range logP {
		logP[i] = 50
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: cfg.LogN, LogQ: logQ, LogP: logP, LogScale: 40,
	})
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	model, err := ledger.ForParametersAt(params, cfg.CacheLimbs, simfhe.NoOpts())
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}

	var seed [prng.SeedSize]byte
	copy(seed[:], "simfhe calibration deterministic")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	enc := ckks.NewEncoder(params)
	n := params.Slots()
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	mkVec := func(phase float64) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(0.5*math.Cos(phase+float64(i)), 0.25*math.Sin(phase-float64(i)))
		}
		return v
	}
	f := &fixture{cfg: cfg, params: params, model: model,
		a: encryptor.Encrypt(enc.Encode(mkVec(0.3))), b: encryptor.Encrypt(enc.Encode(mkVec(1.1)))}
	a, b := f.a, f.b

	var steps []int // the hoisted fan-out
	if c.boot {
		btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
		if err != nil {
			return nil, fmt.Errorf("calib: %w", err)
		}
		ev := btp.Evaluator()
		f.ev = ev
		// Fan out over the first steps the bootstrapper holds keys for.
		for k := 1; k < n && len(steps) < cfg.Rotations; k++ {
			if _, ok := ev.Keys().Galois[params.RingQ().GaloisElement(k)]; ok {
				steps = append(steps, k)
			}
		}
		for i := 0; i < bootProbes; i++ {
			f.probes = append(f.probes,
				probe{call: func() { ev.Mul(a, b) }},
				probe{call: func() { ev.RotateHoisted(a, steps) }})
		}
		low := ev.DropLevel(a, 0)
		f.probes = append(f.probes, probe{call: func() { btp.Bootstrap(low) }})
	} else {
		mat := make(map[int][]complex128, cfg.Diags)
		for d := 0; d < cfg.Diags; d++ {
			vec := make([]complex128, n)
			for t := range vec {
				vec[t] = complex(float64((d+t)%7)/8+0.1, 0)
			}
			mat[d] = vec
		}
		// An explicit split (the model's own is √diags too): the computed
		// one would follow the evaluator's key-product economics, not the
		// model's.
		n1 := int(math.Round(math.Sqrt(float64(cfg.Diags))))
		lt := ckks.NewLinearTransform(enc, mat, params.MaxLevel(), params.Scale(), n1, false)
		for k := 1; k <= cfg.Rotations; k++ {
			steps = append(steps, k)
		}
		rlk := kg.GenRelinearizationKey(sk, true)
		rlk.DropExpanded()
		f.ev = ckks.NewEvaluator(params, &ckks.EvaluationKeySet{
			Rlk: rlk, Galois: kg.GenGaloisKeys(append(lt.RotationSteps(), steps...), sk),
		})
		ev := f.ev

		prod := ev.MulRelin(a, b)
		poly := a.C0.CopyNew()
		rQ := params.RingQ()
		// The model prices each transform as every primitive prices its
		// NTTs (MAD's O(1)-limb caching): (N/2)·log N butterflies per limb
		// and one read and one write of the limb. The blocked kernel's two
		// phases are L1 tiling; a 32–64 KiB limb stays in the replay cache
		// between them.
		f.probes = []probe{
			{name: "mult", gated: true, call: func() { ev.Rescale(ev.MulRelin(a, b)) },
				note: "Rescale(MulRelin): the ledger prices its two spans as the unmerged Mult"},
			{name: "rescale", gated: true, call: func() { ev.Rescale(prod) },
				note: "both ciphertext halves rescaled (model RescalePoly ×2)"},
			{name: "ntt_roundtrip", gated: true, call: func() { rQ.INTTPoly(poly); rQ.NTTPoly(poly) },
				model: func(m simfhe.Ctx) simfhe.Cost { return m.NTTPoly(cfg.Limbs).Times(2) },
				note:  "a kernel, no op span: iNTT+NTT on one poly, one DRAM pass per transform (a limb stays cached between the kernel's phases)"},
			{name: "rotate", gated: true, call: func() { ev.Rotate(a, 1) }},
			{name: fmt.Sprintf("rotate_hoisted_x%d", cfg.Rotations), gated: true, call: func() { ev.RotateHoisted(a, steps) }},
			{name: fmt.Sprintf("ptmatvec_d%d", cfg.Diags), call: func() { ev.EvalLinearTransform(a, lt) },
				model: func(m simfhe.Ctx) simfhe.Cost { return m.PtMatVecMult(cfg.Limbs, cfg.Diags) },
				note:  "informational, no ledger kind yet: the functional giant step ModDowns one half, ModUps it and runs a key product (σ(u) stays raised); the model's baseline ModDowns every baby step and its ModDownHoist price assumes a giant rotation with no ModUp/ModDown, which no RNS implementation can run — measured lands between the two"},
		}
	}
	f.ev.SetWorkers(1)
	f.ev.SetCostModel(model)

	for _, p := range f.probes {
		p.call()
	}
	f.rec = obs.NewRecorder(obs.WithSpanCap(1 << 16))
	f.ev.SetRecorder(f.rec)
	f.tr = memtrace.New()
	f.ev.SetTracer(f.tr)
	return f, nil
}

func (f *fixture) ntt() uint64 { return f.rec.Counter("ring.ntt") + f.rec.Counter("ring.intt") }

// trace runs call as one window of the access stream.
func (f *fixture) trace(call func()) window {
	w := window{begin: f.tr.Len(), ntt: f.ntt()}
	call()
	w.end, w.ntt = f.tr.Len(), f.ntt()-w.ntt
	return w
}

// spanWindow is the window an op or phase span stamped on itself.
func spanWindow(sp obs.SpanRecord) window {
	return window{
		begin: int(sp.Attrs["trace.begin"]), end: int(sp.Attrs["trace.end"]),
		ntt: sp.Counters["ring.ntt"] + sp.Counters["ring.intt"],
	}
}

// settle selects the top-level op spans of everything traced so far —
// the one span rule: a span the ledger prices with no priced ancestor,
// so a Rotate owns its nested KeySwitch instead of double-counting it —
// and returns how many of them carry no prediction or trace window.
func (f *fixture) settle() (skipped int) {
	spans := f.rec.Snapshot().Spans
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	priced := func(sp obs.SpanRecord) bool { _, ok := ledger.Kind(sp.Name); return ok }
	for _, sp := range spans {
		nested := false
		for p := sp.Parent; p != 0 && !nested; p = byID[p].Parent {
			nested = priced(byID[p])
		}
		if !priced(sp) || nested {
			continue
		}
		_, okP := sp.Attrs["pred.bytes"]
		_, okB := sp.Attrs["trace.begin"]
		_, okE := sp.Attrs["trace.end"]
		if !okP || !okB || !okE {
			skipped++
			continue
		}
		f.top = append(f.top, sp)
	}
	return skipped
}

// row prices the top-level spans inside ws — by their own pred.* stamps
// when m is nil, re-priced through m.PredictOp otherwise — or, for a
// probe no priced span covers yet, at p.model on the fixture's own model
// point; and it replays ws at limbs of cache.
func (f *fixture) row(p probe, ws []window, m *ledger.Model, limbs int) Row {
	r := Row{Name: p.name, Gated: p.gated, Note: p.note}
	geo := memtrace.Geometry{CapacityBytes: uint64(limbs) * f.cfg.limbBytes()}
	for _, w := range ws {
		r.Meas = r.Meas.plus(memtrace.Measure(f.tr.Slice(w.begin, w.end), geo, f.tr.Classify))
		r.MeasNTT += w.ntt
		for _, sp := range f.top {
			if sw := spanWindow(sp); sw.begin < w.begin || sw.end > w.end {
				continue
			}
			r.Count++
			r.Products += max(int(sp.Attrs["op.fanout"]), 1)
			c := obs.OpCost{Bytes: uint64(sp.Attrs["pred.bytes"]), NTT: uint64(sp.Attrs["pred.ntt"])}
			if m != nil {
				kind, _ := ledger.Kind(sp.Name)
				c, _ = m.PredictOp(kind, int(sp.Attrs["ct.level"])+1, int(sp.Attrs["op.fanout"]))
			}
			r.Pred += c.Bytes
			r.PredNTT += c.NTT
		}
	}
	if p.model != nil {
		c := p.model(f.model.Ctx())
		r.Pred, r.PredNTT = c.Bytes(), c.NTT
	}
	r.DeltaPct = pct(r.Pred, r.Meas.Total())
	r.WithinTol = math.Abs(r.DeltaPct) <= 100*f.cfg.Tolerance
	return r
}

// Run traces both chains at ring degree 2^logN and returns the report. A
// degree outside [minLogN, maxLogN] is a usage error.
func Run(logN int) (*Report, error) {
	if logN < minLogN || logN > maxLogN {
		return nil, fherr.Errorf(fherr.ErrUsage, "calib: logN %d: want %d..%d", logN, minLogN, maxLogN)
	}
	rep := &Report{Config: Config{
		LogN: logN, Limbs: calLimbs, Dnum: calDnum,
		CacheLimbs: cacheLimbs, Tolerance: tolerance,
		Diags: diags, Rotations: rotations,
	}}
	if err := rep.calibrate(); err != nil {
		return nil, err
	}
	if err := rep.bootstrap(); err != nil {
		return nil, err
	}
	return rep, nil
}

// calibrate adds the calibration chain's probe rows and MAD toggles.
func (rep *Report) calibrate() error {
	cfg := rep.Config
	f, err := newFixture(cfg, chain{qLimbs: cfg.Limbs, pLimbs: cfg.alpha()})
	if err != nil {
		return err
	}
	win := make(map[string]window, len(f.probes)+2)
	for _, p := range f.probes {
		win[p.name] = f.trace(p.call)
	}
	// The toggles' second windows, traced last: the merged Mul, and a
	// Rotate whose key digits expand inside the window. The trailing
	// flush records the Discards that make the regenerated a halves free;
	// without it the end-of-replay flush would charge them as key writes.
	ev, a := f.ev, f.a
	win["mul"] = f.trace(func() { ev.Mul(a, f.b) })
	win["rotate_cold"] = f.trace(func() { ev.FlushKeyVault(); ev.Rotate(a, 1); ev.FlushKeyVault() })
	rep.SkippedSpans += f.settle()

	for _, p := range f.probes {
		rep.Rows = append(rep.Rows, f.row(p, []window{win[p.name]}, nil, cfg.CacheLimbs))
	}

	mp, l := f.model.Ctx().P, cfg.Limbs
	// CacheBeta: the raised digits stay resident across rotations. The
	// model needs ≥ 2·dnum limbs for the toggle to survive Effective; the
	// replay must hold the full raised digit set plus one rotation's
	// streaming working set, so size it generously.
	betaLimbs := max(4*mp.Beta(l)*mp.RaisedLimbs(l), 2*mp.Dnum)
	// CacheAlpha: the O(α) key-switching working set (model threshold
	// 2α+3 limbs) — ModUp digit scratch and basis-extension
	// intermediates stay resident instead of making the DRAM round trip.
	alphaLimbs := 2*mp.Alpha() + 3
	if alphaLimbs <= cfg.CacheLimbs {
		alphaLimbs = cfg.CacheLimbs + mp.Alpha()
	}
	// KeyCompression: the full rotate working set — both key halves, the
	// raised digits, the accumulator pair and the ciphertext — so neither
	// side suffers capacity evictions and the only DRAM delta is the key
	// stream. The capacity is the vault budget (on-chip SRAM in the
	// accelerator reading of §3.2): expanded a halves are writes without a
	// fetch and evictions are Discards, so they cost no DRAM traffic.
	keyLimbs := 4*mp.Beta(l)*mp.RaisedLimbs(l) + 4*mp.Alpha() + 2*l
	hoisted := fmt.Sprintf("rotate_hoisted_x%d", cfg.Rotations)
	for _, t := range []struct {
		name, base, opt     string // toggle, base window, opt window
		baseLimbs, optLimbs int
		opts                simfhe.OptSet
		note                string
	}{
		{"cache_beta", hoisted, hoisted, cfg.CacheLimbs, betaLimbs, simfhe.OptSet{CacheBeta: true},
			fmt.Sprintf("same spans, %d-limb vs %d-limb cache; digit re-reads become hits", cfg.CacheLimbs, betaLimbs)},
		{"cache_alpha", "mult", "mult", cfg.CacheLimbs, alphaLimbs, simfhe.OptSet{CacheAlpha: true},
			fmt.Sprintf("same spans, %d-limb vs %d-limb cache; O(α) ModUp intermediates stay resident", cfg.CacheLimbs, alphaLimbs)},
		{"key_compress", "rotate", "rotate_cold", keyLimbs, keyLimbs, simfhe.OptSet{KeyCompression: true},
			fmt.Sprintf("warm-vault Rotate vs flush+Rotate+flush, %d-limb replay (= key working set); a halves regenerate on chip", keyLimbs)},
		{"moddown_merge", "mult", "mul", cfg.CacheLimbs, cfg.CacheLimbs, simfhe.NoOpts(),
			"Rescale(MulRelin) vs Mul, same cache; one division by P·q_ℓ per half closes the product"},
	} {
		baseModel, err := ledger.ForParametersAt(f.params, t.baseLimbs, simfhe.NoOpts())
		if err != nil {
			return fmt.Errorf("calib: %w", err)
		}
		optModel, err := ledger.ForParametersAt(f.params, t.optLimbs, t.opts)
		if err != nil {
			return fmt.Errorf("calib: %w", err)
		}
		base := f.row(probe{name: t.base}, []window{win[t.base]}, baseModel, t.baseLimbs)
		opt := f.row(probe{name: t.opt, note: t.note}, []window{win[t.opt]}, optModel, t.optLimbs)
		rep.Toggles = append(rep.Toggles, Toggle{Name: t.name, Base: base, Opt: opt,
			Agree: (opt.Pred < base.Pred) == (opt.Meas.Total() < base.Meas.Total())})
	}
	return nil
}

// bootstrap adds the bootstrap chain's rows, each named by its spans: one
// per priced op kind (its top-level spans) and one per phase.
func (rep *Report) bootstrap() error {
	f, err := newFixture(rep.Config, chain{qLimbs: bootQLimbs, pLimbs: bootPLimbs, boot: true})
	if err != nil {
		return err
	}
	for _, p := range f.probes {
		f.trace(p.call)
	}
	rep.SkippedSpans += f.settle()

	byKind := map[string][]window{}
	for _, sp := range f.top {
		byKind[sp.Name] = append(byKind[sp.Name], spanWindow(sp))
	}
	kinds := make([]string, 0, len(byKind))
	for kind := range byKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		rep.Rows = append(rep.Rows, f.row(probe{name: kind, gated: true}, byKind[kind], nil, rep.Config.CacheLimbs))
	}

	// The phases have no ledger kind: the functional EvalMod shape and DFT
	// split differ from the model's closed forms in more ways than the
	// tolerance covers (docs/OBSERVABILITY.md, "Known deviations").
	const note = "informational, no ledger kind: model EvalMod/DFT shapes differ"
	spans := f.rec.Snapshot()
	for _, p := range []probe{
		{name: "bootstrap.ModRaise", note: note, model: func(m simfhe.Ctx) simfhe.Cost { return m.Bootstrap().ModRaise }},
		{name: "bootstrap.CoeffToSlot", note: note, model: func(m simfhe.Ctx) simfhe.Cost { return m.Bootstrap().CoeffToSlot }},
		{name: "bootstrap.EvalMod", note: note, model: func(m simfhe.Ctx) simfhe.Cost { return m.Bootstrap().EvalMod }},
		{name: "bootstrap.SlotToCoeff", note: note, model: func(m simfhe.Ctx) simfhe.Cost { return m.Bootstrap().SlotToCoeff }},
	} {
		var ws []window
		for _, sp := range spans.SpansNamed(p.name) {
			ws = append(ws, spanWindow(sp))
		}
		if len(ws) != 1 {
			return fmt.Errorf("calib: %d %s spans in one bootstrap, want 1", len(ws), p.name)
		}
		rep.Rows = append(rep.Rows, f.row(p, ws, nil, rep.Config.CacheLimbs))
	}
	return nil
}
