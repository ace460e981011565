package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus worker-count sweeps of the functional
// library (its per-op latencies live in bench/). The simulator
// benchmarks report the paper's metrics (Gops, GB, arithmetic
// intensity, runtime, throughput) as custom benchmark metrics, so
// `go test -bench=. -benchmem` regenerates the evaluation in one run.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/simfhe"
	"repro/internal/simfhe/apps"
	"repro/internal/simfhe/design"
	"repro/internal/simfhe/search"
)

// --- Table 4: primitive-operation costs and arithmetic intensity ---

func BenchmarkTable4(b *testing.B) {
	for _, row := range core.Table4() {
		b.Run(row.Name, func(b *testing.B) {
			var c simfhe.Cost
			for i := 0; i < b.N; i++ {
				ctx := simfhe.NewCtx(simfhe.Baseline(), simfhe.MB(2), simfhe.NoOpts())
				c = ctx.Mult(ctx.P.L) // representative re-evaluation cost
			}
			_ = c
			b.ReportMetric(row.Cost.GOps(), "Gops")
			b.ReportMetric(row.Cost.GB(), "GB")
			b.ReportMetric(row.Cost.AI(), "ops/byte")
		})
	}
}

// --- Figure 2: cumulative caching optimizations ---

func BenchmarkFig2(b *testing.B) {
	pts := core.Figure2()
	base := pts[0].Cost
	for _, pt := range pts {
		b.Run(pt.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Figure2()
			}
			b.ReportMetric(pt.Cost.GB(), "GB")
			b.ReportMetric(100*(1-float64(pt.Cost.Bytes())/float64(base.Bytes())), "%DRAM-saved")
			b.ReportMetric(pt.Cost.AI(), "ops/byte")
		})
	}
}

// --- Figure 3: cumulative algorithmic optimizations ---

func BenchmarkFig3(b *testing.B) {
	pts := core.Figure3()
	base := pts[0].Cost
	for _, pt := range pts {
		b.Run(pt.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Figure3()
			}
			b.ReportMetric(pt.Cost.GOps(), "Gops")
			b.ReportMetric(pt.Cost.GB(), "GB")
			b.ReportMetric(100*(1-float64(pt.Cost.Ops())/float64(base.Ops())), "%ops-saved")
			b.ReportMetric(pt.Cost.AI(), "ops/byte")
		})
	}
}

// --- Table 5: the brute-force parameter search itself ---

func BenchmarkTable5Search(b *testing.B) {
	space := search.Space{LogQMin: 45, LogQMax: 58, DnumMax: 4, FFTIters: []int{3, 4, 5, 6}}
	var best search.Candidate
	for i := 0; i < b.N; i++ {
		best, _ = search.Best(space, search.ReferenceDesign(), simfhe.AllOpts())
	}
	b.ReportMetric(best.Throughput, "throughput")
	b.ReportMetric(float64(best.Params.LogQ), "q")
	b.ReportMetric(float64(best.Params.L), "L")
	b.ReportMetric(float64(best.Params.Dnum), "dnum")
	b.ReportMetric(float64(best.Params.FFTIter), "fftIter")
}

// --- Table 6: bootstrapping throughput per design ---

func BenchmarkTable6(b *testing.B) {
	for _, row := range design.Table6() {
		b.Run(row.Original.Name, func(b *testing.B) {
			var r design.BootstrapResult
			for i := 0; i < b.N; i++ {
				r = design.RunBootstrap(row.Original.WithMemory(32), simfhe.Optimal(), simfhe.AllOpts())
			}
			b.ReportMetric(row.OrigTput, "orig-tput")
			b.ReportMetric(r.Throughput, "MAD-tput")
			b.ReportMetric(r.RuntimeMs, "MAD-ms")
			b.ReportMetric(row.Normalized, "normalized")
		})
	}
}

// --- Figure 6: application comparisons ---

func BenchmarkFig6LR(b *testing.B) {
	w := apps.HELR()
	for _, d := range design.All() {
		b.Run(d.Name, func(b *testing.B) {
			var orig, mad apps.Result
			for i := 0; i < b.N; i++ {
				orig = apps.Run(w, d, simfhe.Baseline(), simfhe.CachingOpts())
				mad = apps.Run(w, d.WithMemory(32), simfhe.Optimal(), simfhe.AllOpts())
			}
			b.ReportMetric(orig.RuntimeS, "orig-s")
			b.ReportMetric(mad.RuntimeS, "MAD32-s")
			b.ReportMetric(orig.RuntimeS/mad.RuntimeS, "speedup")
		})
	}
}

func BenchmarkFig6ResNet(b *testing.B) {
	w := apps.ResNet20()
	for _, d := range []design.Design{design.BTS, design.ARK, design.CraterLake} {
		b.Run(d.Name, func(b *testing.B) {
			var orig, mad apps.Result
			for i := 0; i < b.N; i++ {
				orig = apps.Run(w, d, simfhe.Baseline(), simfhe.CachingOpts())
				mad = apps.Run(w, d.WithMemory(32), simfhe.Optimal(), simfhe.AllOpts())
			}
			b.ReportMetric(orig.RuntimeS, "orig-s")
			b.ReportMetric(mad.RuntimeS, "MAD32-s")
			b.ReportMetric(orig.RuntimeS/mad.RuntimeS, "speedup")
		})
	}
}

// --- Ablation: each MAD optimization in isolation (DESIGN.md §ablations) ---

func BenchmarkAblationSingleOpt(b *testing.B) {
	p := simfhe.Optimal()
	singles := []struct {
		name string
		opts simfhe.OptSet
	}{
		{"none", simfhe.NoOpts()},
		{"O1-only", simfhe.OptSet{CacheO1: true}},
		{"beta-only", simfhe.OptSet{CacheBeta: true}},
		{"alpha-only", simfhe.OptSet{CacheAlpha: true}},
		{"merge-only", simfhe.OptSet{ModDownMerge: true}},
		{"hoist-only", simfhe.OptSet{ModDownHoist: true}},
		{"keycomp-only", simfhe.OptSet{KeyCompression: true}},
		{"all", simfhe.AllOpts()},
	}
	for _, s := range singles {
		b.Run(s.name, func(b *testing.B) {
			var c simfhe.Cost
			for i := 0; i < b.N; i++ {
				c = simfhe.NewCtx(p, simfhe.MB(64), s.opts).Bootstrap().Total()
			}
			b.ReportMetric(c.GOps(), "Gops")
			b.ReportMetric(c.GB(), "GB")
			b.ReportMetric(c.AI(), "ops/byte")
		})
	}
}

// --- Functional-library worker sweeps ---

func benchCKKS(b *testing.B) (*ckks.Parameters, *ckks.KeyGenerator, *ckks.SecretKey, *prng.Source) {
	b.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     12,
		LogQ:     []int{50, 40, 40, 40, 40, 40},
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], "benchmark fixture seed .........")
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	return params, kg, sk, src
}

func benchBootstrapper(b *testing.B) (*bootstrap.Bootstrapper, *ckks.Ciphertext) {
	b.Helper()
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	var seed [prng.SeedSize]byte
	src := prng.NewSource(seed)
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		b.Fatal(err)
	}
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	ct := encryptor.Encrypt(enc.Encode(make([]complex128, params.Slots())))
	return btp, btp.Evaluator().DropLevel(ct, 0)
}

// parallelWorkerCounts is the sweep the parallel benchmarks run: serial,
// two workers, every core (deduplicated, so a single-core machine only
// measures the overhead of the worker pool, not a fake speedup).
func parallelWorkerCounts() []int {
	counts := []int{1, 2, runtime.NumCPU()}
	var out []int
	for _, c := range counts {
		if len(out) == 0 || c > out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkParallelBootstrap sweeps the worker knob over the full
// bootstrap pipeline — the multi-limb workload where limb-, digit- and
// rotation-level parallelism all engage. Outputs are bit-identical at
// every worker count (asserted by TestBootstrapBitIdenticalAcrossWorkers);
// only the wall clock changes.
func BenchmarkParallelBootstrap(b *testing.B) {
	btp, ct := benchBootstrapper(b)
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			btp.Evaluator().SetWorkers(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = btp.Bootstrap(ct)
			}
		})
	}
	btp.Evaluator().SetWorkers(1)
}

// BenchmarkParallelRotateHoisted sweeps the worker knob over the hoisted
// rotation fan-out (shared decomposition, per-step key switches) — the
// kernel behind CoeffToSlot/SlotToCoeff diagonal evaluation.
func BenchmarkParallelRotateHoisted(b *testing.B) {
	params, kg, sk, src := benchCKKS(b)
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	gks := kg.GenRotationKeys(steps, sk, false)
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Galois: gks})
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	ct := encryptor.Encrypt(enc.Encode(make([]complex128, params.Slots())))
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ev.SetWorkers(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ev.RotateHoisted(ct, steps)
			}
		})
	}
	ev.SetWorkers(1)
}
