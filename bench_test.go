package repro

// Root benchmarks: the Table 5 parameter search (the one simulator call
// slow enough to time) and worker-count sweeps of the functional library
// (its per-op latencies live in bench/). The paper's tables and figures
// are `simfhe` commands, not benchmarks.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/prng"
	"repro/internal/simfhe"
	"repro/internal/simfhe/search"
)

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
