package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/ckks"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/ring"
	"repro/internal/rns"
)

// replayCacheLimbs is the repo's calibration geometry for the DRAM
// replay: a cache of 6 limbs of 8·N bytes, 64-byte lines, 8 ways.
const replayCacheLimbs = ledger.DefaultCacheLimbs

// probeReps is how often a probe repeats its call; it reports the median.
const probeReps = 15

// probe returns the median wall time of fn over probeReps calls, in µs.
func probe(fn func()) float64 {
	us := make([]float64, probeReps)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us)
}

// randomPoly fills a polynomial of r with uniform residues, in NTT form.
func randomPoly(r *ring.Ring, seed uint64, label string) *ring.Poly {
	src := inputs(seed, "probe/"+label)
	p := r.NewPoly()
	for i, limb := range p.Coeffs {
		src.UniformSlice(limb, r.Moduli[i])
	}
	p.IsNTT = true
	return p
}

// probeLayers times direct calls into each layer's public functions at
// the workload's own N, top level and α. Every probe runs on operands of
// its own, away from the workload's evaluator.
func probeLayers(p *ckks.Parameters, seed uint64, v map[string]float64) {
	rQ, conv, level := p.RingQ(), p.Converter(), p.MaxLevel()
	limbs := float64(level + 1)

	a := randomPoly(rQ, seed, "a")
	sub := rQ.SubRings[0]
	v["ring.ntt_us_per_limb"] = probe(func() { sub.NTT(a.Coeffs[0]) })
	v["ring.intt_us_per_limb"] = probe(func() { sub.INTT(a.Coeffs[0]) })
	out := rQ.NewPoly()
	g := rQ.GaloisElement(1)
	v["ring.automorphism_us_per_limb"] = probe(func() { rQ.AutomorphismNTT(a, g, out) }) / limbs

	raised := conv.NewPolyQP(level)
	v["rns.modup_us"] = probe(func() { conv.ModUpDigit(level, 0, min(p.Alpha(), level+1), a, raised, 1) })
	full := rns.PolyQP{Q: randomPoly(rQ, seed, "q"), P: randomPoly(p.RingP(), seed, "p")}
	v["rns.moddown_us"] = probe(func() { conv.ModDown(level, full, out, 1) })
	lower := rQ.AtLevel(level - 1).NewPoly()
	v["rns.rescale_us"] = probe(func() { conv.Rescale(level, a, lower, 1) })

	src := inputs(seed, "probe/keys")
	kg := ckks.NewKeyGenerator(p, src)
	sk := kg.GenSecretKey()
	gk := kg.GenGaloisKey(g, sk, true)
	v["prng.expand_us_per_digit"] = probe(func() {
		gk.DropExpanded()
		gk.ExpandAll(p)
	}) / float64(len(gk.Digits))

	enc := ckks.NewEncoder(p)
	encryptor := ckks.NewSecretKeyEncryptor(p, sk, src)
	dec := ckks.NewDecryptor(p, sk)
	vals := make([]complex128, p.Slots())
	for i := range vals {
		vals[i] = complex(2*src.Float64()-1, 0)
	}
	var pt *ckks.Plaintext
	var ct *ckks.Ciphertext
	v["ckks.encode_ms"] = probe(func() { pt = enc.Encode(vals) }) / 1e3
	v["ckks.encrypt_ms"] = probe(func() { ct = encryptor.Encrypt(pt) }) / 1e3
	v["ckks.decrypt_ms"] = probe(func() { enc.Decode(dec.DecryptToPlaintext(ct)) }) / 1e3
	var wire bytes.Buffer
	v["ckks.ct_codec_ms"] = probe(func() {
		wire.Reset()
		_, werr := ct.WriteTo(&wire)
		_, rerr := new(ckks.Ciphertext).ReadFrom(bytes.NewReader(wire.Bytes()))
		if werr != nil || rerr != nil {
			panic(fmt.Sprint("ciphertext codec: ", werr, rerr))
		}
	}) / 1e3
}

// probeServerCodec times what an fhed handler does to a ciphertext on the
// way in (JSON field → base64 → binary) and on the way out, on a
// top-level ciphertext of the tenant's shape, and returns ms per KB of
// request body and per KB of response body.
func probeServerCodec(p *ckks.Parameters, seed uint64) (inMsPerKB, outMsPerKB float64) {
	src := inputs(seed, "probe/codec")
	kg := ckks.NewKeyGenerator(p, src)
	ct := ckks.NewSecretKeyEncryptor(p, kg.GenSecretKey(), src).Encrypt(ckks.NewEncoder(p).Encode(make([]complex128, p.Slots())))
	var wire bytes.Buffer
	var reply []byte
	encode := func() {
		wire.Reset()
		if _, err := ct.WriteTo(&wire); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
		reply, _ = json.Marshal(ctResp{Ct: base64.StdEncoding.EncodeToString(wire.Bytes()), Level: ct.Level, Bytes: wire.Len(), Op: "rotate", Repeat: 1})
	}
	outUs := probe(encode)
	var parsed ctResp
	if err := json.Unmarshal(reply, &parsed); err != nil {
		panic(err)
	}
	request, _ := json.Marshal(evalReq{Op: "rotate", A: parsed.Ct, By: 1})
	inUs := probe(func() {
		var req evalReq
		err := json.Unmarshal(request, &req)
		raw, derr := base64.StdEncoding.DecodeString(req.A)
		_, rerr := new(ckks.Ciphertext).ReadFrom(bytes.NewReader(raw))
		if err != nil || derr != nil || rerr != nil {
			panic(fmt.Sprint("request codec: ", err, derr, rerr))
		}
	})
	return inUs / 1e3 / (float64(len(request)) / 1024), outUs / 1e3 / (float64(len(reply)) / 1024)
}

// replayDRAM runs one step with a memory tracer attached and replays the
// access stream through the calibration cache. The bytes are the paper's
// quantity: they predict accelerator cost; on this host, where kernels
// are compute-bound, they move latency only weakly.
func replayDRAM(inst instance, info layerInfo, it int, v map[string]float64) []sample {
	mt := memtrace.New()
	info.ev.SetTracer(mt)
	out := inst.step(0, it, nil)
	info.ev.SetTracer(nil)
	geom := memtrace.Geometry{CapacityBytes: uint64(replayCacheLimbs * 8 * info.params.N())}
	t := memtrace.Measure(mt.Slice(0, mt.Len()), geom, mt.Classify)
	class := func(c memtrace.Class) float64 { return float64(t.ReadBytes[c]+t.WriteBytes[c]) / mb }
	v["ckks.dram_mb_per_op"] = float64(t.Total()) / mb
	v["ckks.dram_ct_mb_per_op"] = class(memtrace.ClassCt)
	v["ckks.dram_key_mb_per_op"] = class(memtrace.ClassKey)
	v["ckks.dram_pt_mb_per_op"] = class(memtrace.ClassPt)
	v["ckks.dram_scratch_mb_per_op"] = class(memtrace.ClassScratch)
	return out
}

// spanStats gathers, by span name, the durations of the recorder's spans.
type spanStats map[string][]float64 // ms

// of sums the durations of the spans with exactly this name.
func (s spanStats) of(name string) float64 {
	var total float64
	for _, d := range s[name] {
		total += d
	}
	return total
}

// under sums the durations of the spans whose name has this prefix.
func (s spanStats) under(prefix string) float64 {
	var total float64
	for name := range s {
		if strings.HasPrefix(name, prefix) {
			total += s.of(name)
		}
	}
	return total
}

// predicted sums the model's prediction over the recorder's op spans,
// counting a span only when no span above it carries a prediction too
// (MulRelin's includes its KeySwitch's).
func predicted(recorded []obs.SpanRecord) obs.OpCost {
	byID := make(map[uint64]obs.SpanRecord, len(recorded))
	for _, r := range recorded {
		byID[r.ID] = r
	}
	var sum obs.OpCost
	for _, r := range recorded {
		if _, ok := r.Attrs["pred.bytes"]; !ok {
			continue
		}
		nested := false
		for p, ok := byID[r.Parent]; ok && !nested; p, ok = byID[p.Parent] {
			_, nested = p.Attrs["pred.bytes"]
		}
		if !nested {
			sum.Bytes += uint64(r.Attrs["pred.bytes"])
			sum.Ops += uint64(r.Attrs["pred.ops"])
			sum.NTT += uint64(r.Attrs["pred.ntt"])
		}
	}
	return sum
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced repeats the workload for a few ops, first untraced and then
// with the benchmark's tracer, an obs.Recorder and (for one op) a memory
// tracer attached, and derives every per-layer metric.
func runTraced(w workload, cfg runConfig, defs []metricDef) (result, error) {
	inst, err := w.setup(cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	info := inst.layers()
	n := w.tracedSteps
	if cfg.quick {
		n = quickSteps
	}
	v := make(map[string]float64, len(defs))
	for _, d := range defs {
		v[d.Name] = 0 // a layer the workload does not reach reads 0
	}

	all := drive(inst, nil, nil, 0, steps(1)) // warm-up

	vaultBefore, err := inst.vault()
	if err != nil {
		return result{}, err
	}
	rec := inst.observe(true)
	// inProcess: the benchmark holds the evaluator, so it can attach and
	// detach the recorder and the memory tracer. Over HTTP it cannot.
	inProcess := info.ev != nil
	if !inProcess {
		// The fhed server's recorder has been on since set-up; only what
		// it records from here on belongs to the traced pass.
		rec.Reset()
	}
	tr := newTracer()
	inst.observe(false)
	// Untraced and traced steps alternate, so that a slow phase of the
	// host falls on both sides of the overhead comparison. The per-layer
	// times are as measured; the reference, timed once per pair of steps,
	// says how slow the host was while they were.
	ref := newRefKernel()
	var reference, traced []sample
	var hostMs []float64
	for i := 0; i < n; i++ {
		hostMs = append(hostMs, ref.tick())
		reference = append(reference, drive(inst, nil, nil, 1+i, steps(1))...)
		inst.observe(true)
		traced = append(traced, drive(inst, tr, nil, 1+i, steps(1))...)
		inst.observe(false)
	}
	snap := rec.Snapshot()
	vaultAfter, err := inst.vault()
	if err != nil {
		return result{}, err
	}
	tr.adopt(snap.Spans, inProcess)
	own := tr.spans[:len(tr.spans)-len(snap.Spans)] // the benchmark's own spans

	// The traced pass must compute what the untraced pass computed.
	for i := range traced {
		if traced[i].digest != reference[i].digest {
			fmt.Printf("%s %d: traced output differs from the untraced output\n", traced[i].kind, i)
			traced[i].failed = true
		}
	}
	all = append(append(all, reference...), traced...)

	// What the recorder saw: the traced steps, and the untraced ones too
	// where it cannot be detached. The vault counts both everywhere.
	observed, stepsObserved := traced, n*inst.clients()
	if !inProcess {
		observed, stepsObserved = append(observed[:len(observed):len(observed)], reference...), 2*stepsObserved
	}
	ops := float64(len(observed))
	vaultOps := float64(len(traced) + len(reference))
	tracedMs, refMs := latenciesMs(traced), latenciesMs(reference)
	var busyMs float64 // what the busy shares are shares of
	for _, ms := range latenciesMs(observed) {
		busyMs += ms
	}
	counter := func(name string) float64 { return float64(snap.Counters[name]) }
	stats := spanStats{}
	for _, r := range snap.Spans {
		stats[r.Name] = append(stats[r.Name], float64(r.Dur.Nanoseconds())/1e6)
	}
	for _, s := range own {
		stats["bench."+s.Name] = append(stats["bench."+s.Name], float64(s.dur())/1e6)
	}
	p50 := func(name string) float64 {
		if len(stats[name]) == 0 || err != nil {
			return 0
		}
		var q float64
		q, err = percentileOrMax(stats[name], 0.50, cfg.quick)
		return q
	}

	probeLayers(info.params, cfg.seed, v)

	// ring
	calls := counter("ring.ntt") + counter("ring.intt")
	v["ring.ntt_calls_per_op"] = calls / ops
	v["ring.ntt_mb_per_op"] = (counter("ring.ntt.bytes") + counter("ring.intt.bytes")) / mb / ops
	v["ring.ntt_busy_share"] = ratio((counter("ring.ntt")*v["ring.ntt_us_per_limb"]+counter("ring.intt")*v["ring.intt_us_per_limb"])/1e3, busyMs)
	v["ring.pool_miss_ratio"] = ratio(counter("ring.nttpool.miss"), counter("ring.nttpool.get"))

	// rns
	v["rns.extend_calls_per_op"] = counter("rns.extend") / ops
	v["rns.extend_mb_per_op"] = counter("rns.extend.bytes") / mb / ops
	v["rns.span_ms_per_op"] = stats.under("rns.") / ops
	v["rns.busy_share"] = ratio(stats.under("rns."), busyMs)

	// key vault and prng
	expansions := float64(vaultAfter.Expansions - vaultBefore.Expansions)
	hits, misses := float64(vaultAfter.Hits-vaultBefore.Hits), float64(vaultAfter.Misses-vaultBefore.Misses)
	v["prng.busy_share"] = ratio(expansions*v["prng.expand_us_per_digit"]/1e3, busyMs*vaultOps/ops)
	v["ckks.key_mb_per_op"] = counter("ckks.key.bytes") / mb / ops
	v["ckks.keyvault_hit_ratio"] = 1
	if hits+misses > 0 {
		v["ckks.keyvault_hit_ratio"] = hits / (hits + misses)
	}
	v["ckks.keyvault_expansions_per_op"] = expansions / vaultOps
	v["ckks.keyvault_evictions_per_op"] = float64(vaultAfter.Evictions-vaultBefore.Evictions) / vaultOps
	v["ckks.keyvault_resident_mb"] = float64(vaultAfter.ResidentBytes) / mb
	v["ckks.keyswitch_per_op"] = counter("ckks.keyswitch") / ops
	v["ckks.rotations_per_op"] = counter("ckks.rotate") / ops

	// ckks public calls
	v["ckks.mulrelin_ms_p50"] = p50("ckks.MulRelin")
	v["ckks.rescale_ms_p50"] = p50("ckks.Rescale")
	v["ckks.rotate_ms_p50"] = p50("ckks.Rotate")
	v["ckks.lintrans_ms_p50"] = p50("bench.LinearTransform")
	var medians []float64
	for _, s := range traced {
		if s.checked {
			medians = append(medians, s.prec.MedianPrecisionBits)
		}
	}
	v["ckks.precision_bits_median"] = median(medians)

	// bootstrap phases
	for _, phase := range []string{"ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff"} {
		v["bootstrap."+strings.ToLower(phase)+"_ms"] = stats.of("bootstrap."+phase) / ops
	}

	// model prediction, DRAM replay and their drift
	pred := predicted(snap.Spans)
	if model, merr := ledger.ForParameters(info.params); merr == nil && info.unspanned != nil {
		extra := info.unspanned(model)
		pred.Bytes += uint64(stepsObserved) * extra.Bytes
		pred.Ops += uint64(stepsObserved) * extra.Ops
	}
	v["simfhe.pred_mb_per_op"] = float64(pred.Bytes) / mb / ops
	v["simfhe.pred_gops_per_op"] = float64(pred.Ops) / 1e9 / ops
	if inProcess {
		all = append(all, replayDRAM(inst, info, 1, v)...)
		v["ckks.drift_pct"] = 100 * ratio(v["ckks.dram_mb_per_op"]-v["simfhe.pred_mb_per_op"], v["simfhe.pred_mb_per_op"])
		v["ckks.ops_per_byte"] = ratio(v["simfhe.pred_gops_per_op"]*1e9, v["ckks.dram_mb_per_op"]*mb)
	}

	// server
	v["server.eval_share"] = 1
	if !inProcess {
		serverMetrics(info, cfg, observed, stats, snap, p50, v)
	}

	// What two cores of a shared host give the limb-parallel paths:
	// reported for the record, never bounded.
	if w.workerSweep {
		info.ev.SetWorkers(2)
		two := drive(inst, nil, nil, 1, steps(n))
		info.ev.SetWorkers(1)
		one := drive(inst, nil, nil, 1, steps(n))
		all = append(append(all, two...), one...)
		v["ring.parallel_speedup_w2"] = ratio(median(latenciesMs(one)), median(latenciesMs(two)))
	}

	v["host.slowdown"] = median(hostMs) / refNominalMs

	// tracing itself
	v["obs.trace_overhead_pct"] = 100 * ratio(median(tracedMs)-median(refMs), median(refMs))
	v["obs.dropped_spans"] = counter(obs.DroppedSpansCounter)
	// What no recorder span explains: the self time of the benchmark's own
	// spans; over HTTP, the client's exchange minus the server's handlers.
	var unexplained, rootNs float64
	if inProcess {
		self := selfTimes(tr.spans)
		for _, s := range own {
			unexplained += float64(self[s.ID])
		}
	} else {
		// The handler spans cover the untraced steps too.
		handlers := stats.under("fhed.http.") * float64(len(traced)) / float64(len(observed))
		unexplained = (stats.of("bench.client.http") - handlers) * 1e6
	}
	for _, s := range own {
		if s.Parent == 0 {
			rootNs += float64(s.dur())
		}
	}
	v["ckks.unaccounted_share"] = ratio(unexplained, rootNs)
	if err != nil {
		return result{}, err
	}

	m := newMeta(w, cfg)
	m.Ops, m.Clients, m.CacheCapacity = n, inst.clients(), replayCacheLimbs*8*info.params.N()
	m.print()
	if gap := printSelfTable(os.Stdout, tr.spans, w.rootSpan, len(traced)); gap > 0.01 || gap < -0.01 {
		return result{}, fmt.Errorf("%s: self-time rows are %.2f%% off their parent", w.name, 100*gap)
	}
	if !inProcess {
		printServerSpans(stats, len(traced))
	}
	path := "bench/out/trace-" + w.name + ".json"
	if err := writeTrace(path, traceFile{Meta: m, Workload: w.name, Spans: tr.spans}); err != nil {
		return result{}, err
	}
	fmt.Printf("%s: %d spans of %d traced ops written to %s\n", w.name, len(tr.spans), len(traced), path)
	return report(defs, v, all)
}

// serverMetrics derives the server.* rows of fhed_mixed from the client's
// samples and the server recorder's spans.
func serverMetrics(info layerInfo, cfg runConfig, observed []sample, stats spanStats, snap obs.Snapshot, p50 func(string) float64, v map[string]float64) {
	var reqKB, respKB float64
	for _, s := range observed {
		stats["client."+s.kind] = append(stats["client."+s.kind], float64(s.latency.Nanoseconds())/1e6)
		reqKB += float64(s.reqBytes) / 1024
		respKB += float64(s.respBytes) / 1024
	}
	n := float64(len(observed))
	for _, kind := range []string{"rotate", "mul", "add", "encrypt", "decrypt"} {
		v["server."+kind+"_ms_p50"] = p50("client." + kind)
	}
	var handlers []float64
	for name, durs := range stats {
		if strings.HasPrefix(name, "fhed.http.") {
			handlers = append(handlers, durs...)
		}
	}
	stats["handler"] = handlers
	v["server.handler_ms_p50"] = p50("handler")
	// Two closed-loop clients on two slots never queue; the rows are here
	// so that a change to admission shows.
	if waits := stats["fhed.admission.wait"]; len(waits) > 0 {
		v["server.admission_wait_ms_p50"] = median(waits)
		if q, err := percentile(waits, 0.90); err == nil {
			v["server.admission_wait_ms_p90"] = q
		}
	}
	inMs, outMs := probeServerCodec(info.params, cfg.seed)
	v["server.req_kb"], v["server.resp_kb"] = reqKB/n, respKB/n
	v["server.codec_ms_per_req"] = inMs*reqKB/n + outMs*respKB/n
	handlerMs := stats.of("handler")
	var evalMs float64
	for name := range stats {
		// The checked facade's spans (ckks.RotateE, ckks.MulE, ckks.AddE)
		// are the outermost evaluator spans of a request.
		if strings.HasPrefix(name, "ckks.") && strings.HasSuffix(name, "E") {
			evalMs += stats.of(name)
		}
	}
	v["server.eval_share"] = ratio(evalMs, handlerMs)
	v["server.codec_share"] = ratio(v["server.codec_ms_per_req"]*n, handlerMs)
	v["server.wait_share"] = 1 - v["server.eval_share"] - v["server.codec_share"]
	v["server.rejected_share"] = ratio(float64(snap.Counters["fhed.admission.rejected"]), float64(snap.Counters["fhed.admission.requests"]))
}

// printServerSpans lists the server recorder's spans by name. They are
// not linked under the client's request spans: two requests in flight
// share the recorder's one cursor, so its parent links cannot be trusted.
func printServerSpans(stats spanStats, requests int) {
	fmt.Printf("server-side spans (inclusive, not linked to requests)\n")
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, "fhed.") || strings.HasPrefix(name, "ckks.") || strings.HasPrefix(name, "rns.") {
			fmt.Printf("  %-28s %8.1f %12.4f\n", name, float64(len(stats[name]))/float64(requests), stats.of(name)/float64(requests))
		}
	}
}
