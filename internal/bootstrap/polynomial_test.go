package bootstrap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/mathutil"
	"repro/internal/obs"
	"repro/internal/simfhe"
)

// polynomialGolden holds the SHA-256 of the serialized result of each grid
// point below. The hashes were recorded on the commit before the two
// polynomial executors (a power-basis one in ckks, a Chebyshev one here)
// became one, by this test with the two old entry points behind the basis
// switch, and the merge was made under them. The two degree-1 rows are the
// one deliberate re-record: the old ladder spent a multiplication and a level
// on a square no leaf reads. The bootstrap row also follows the DFT
// transforms' rounding; it was last re-recorded when their giant groups
// became Horner chains (13.80 → 13.78 bits min, 15.36 → 15.41 median).
var polynomialGolden = map[string]string{
	"chebyshev/0":        "85bc2871e90d7a416fd24039c4bec46a1712e965301011cb1c117d138b3e620d",
	"chebyshev/1":        "af53abd2d96091400d028465cdd7766ca2379bb325751be478563bf1ee7ad7ca",
	"chebyshev/2":        "9fc178b9b7d9f97121a73e6691d9508053c11d528a35102b468c643e911df4db",
	"chebyshev/3":        "109bcbd4b7e4e68304e0c7b4da05f4b2c6a0fe620d51844202107c589964c145",
	"chebyshev/4":        "89d2e2df4d442092d3b3a2a1f3537218e1e31041e5d6be65214579b2d807f042",
	"chebyshev/5":        "85e72016ccf7fe94af5e1a400df00ab44333ce3e44c412b3c0a9093dcf6a4a43",
	"chebyshev/7":        "3319833145bf705cea13eb025e01fc785d5f28344f28ba38272fb5f2c70587a5",
	"chebyshev/8":        "c3a2dd023fe91aa5c3ac2a84b8fffa1fb8bf88d33b904ecfae69430257b3cf1f",
	"chebyshev/15":       "80b11e56340f89b8d49792a477c76948bfe08e206fb12987e6eab50271eb7577",
	"chebyshev/16":       "e86ef653d7f61b8f2d1557022ed2b1ebc57297424e98f37b14ebde78c7dc56f8",
	"chebyshev/23":       "3d665b750f60bb6043863f5c02c78e883d591b4e32adeb744f8ceb1bba247c23",
	"chebyshev/31":       "e46784ab5b7935b47c51bc8b2d4c3d501d744127d4f00d389b38f24be4b0b93a",
	"chebyshev/32":       "481979986130e2434b0cff89e43cd33d2e1044e393e269c22fc772ae78703bde",
	"chebyshev/63":       "8a26ad03f3bc15ade2802ddc396033a8a42c2b62ab9261b91173e5781ece0303",
	"monomial/0":         "afe39c67bff0917c26b9a2402b97e9c012125e7ca06f0a2daae5db653b722311",
	"monomial/1":         "faf0ea2d969a16c47dd5514408f87219f6893b298378519ddf762d994546065c",
	"monomial/2":         "2460675ff553e98b22b284ac227936eac965c80a1492ae93909e135659aabf4e",
	"monomial/5":         "ac18bff371785cc1807272c3ee2c09ea4857806077376982b5e24ba920c8bcf3",
	"monomial/7-sigmoid": "6f9c8514294d097eb4dc8b6979033ccb48cd12e9eff3bdf2ab982854000e73b8",
	"monomial/16":        "fd2c4cde600ca9f0a00948f5788bc4d87e457bd57dcd55c2a91a16a5dbd40b3a",
	"monomial/31":        "956a57c1c3b221ffe39bea708c2c8ca556eb5686e4d0c24023170e7c967e6426",
	"bootstrap":          "c512cd5966a912c04ed2ad9f458c1f8400be6b8176b4cbbcc97e3786dece1902",
}

func checkGolden(t *testing.T, name string, ct *ckks.Ciphertext) {
	t.Helper()
	h := sha256.New()
	if _, err := ct.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != polynomialGolden[name] {
		t.Errorf("%s: serialized output hashes to %s, golden %s", name, got, polynomialGolden[name])
	}
}

// goldenAsymmetric is neither even nor odd and has a kink, so none of its
// Chebyshev coefficients up to degree 63 is small enough to be trimmed:
// every grid degree runs at its nominal schedule.
func goldenAsymmetric(x float64) float64 { return math.Abs(x-0.3) + 0.2*x }

// alternating returns a degree-d monomial polynomial with no zero
// coefficient and signs + − − + + − − …
func alternating(d int) []float64 {
	c := make([]float64, d+1)
	for k := range c {
		c[k] = 1 / float64(k+2)
		if k*(k+1)/2%2 == 1 {
			c[k] = -c[k]
		}
	}
	return c
}

// polyFixture is a relinearization-only evaluator on the bootstrap test
// chain with one encrypted vector of values in [-1, 1], all from fixed
// seeds.
func polyFixture(t *testing.T) (*ckks.Evaluator, *ckks.Ciphertext) {
	t.Helper()
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: kg.GenRelinearizationKey(sk, false)})

	rng := rand.New(rand.NewPCG(22, 31))
	xs := make([]complex128, params.Slots())
	for i := range xs {
		xs[i] = complex(rng.Float64()*2-1, 0)
	}
	return ev, ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(ckks.NewEncoder(params).Encode(xs))
}

// TestPolynomialGolden: EvalPolynomial produces, bit for bit, what the two
// executors it replaced produced — over Chebyshev degrees on both sides of
// every change of schedule shape, monomial polynomials with and without
// zero coefficients, and one full bootstrap.
func TestPolynomialGolden(t *testing.T) {
	ev, ct := polyFixture(t)
	for _, d := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 23, 31, 32, 63} {
		coeffs := ChebyshevCoeffs(goldenAsymmetric, d)
		for k, c := range coeffs {
			if math.Abs(c) < 1e-6 {
				t.Fatalf("degree %d: coefficient %d = %g is close to the trim threshold", d, k, c)
			}
		}
		checkGolden(t, fmt.Sprintf("chebyshev/%d", d), ev.EvalPolynomial(ckks.Chebyshev, coeffs, ct)[0])
	}
	for name, coeffs := range map[string][]float64{
		"monomial/0":         {0.75},
		"monomial/1":         {0.1, 0.9},
		"monomial/2":         {0.1, 0.9, -0.4},
		"monomial/5":         {0.3, -1.2, 0.5, 0.25, -0.125, 0.0625},
		"monomial/7-sigmoid": ckks.SigmoidCoeffs(),
		"monomial/16":        alternating(16),
		"monomial/31":        alternating(31),
	} {
		checkGolden(t, name, ev.EvalPolynomial(ckks.Monomial, coeffs, ct)[0])
	}

	if testing.Short() {
		return
	}
	btp, params, sk := vaultBootstrapper(t)
	rng := rand.New(rand.NewPCG(22, 32))
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	in := ckks.NewSecretKeyEncryptor(params, sk, bootSource()).Encrypt(ckks.NewEncoder(params).Encode(msg))
	checkGolden(t, "bootstrap", btp.Bootstrap(btp.Evaluator().DropLevel(in, 0)))
}

// TestPolynomialScheduleMatchesPlan: the evaluator runs the schedule
// mathutil.PSPlan describes — the same plan the bootstrapper budgets
// levels from and the simulator prices. For each (basis, degree) the
// multiplications counted and the levels consumed are the plan's; a
// recorded bootstrap's EvalMod phase carries the plan's count for both
// halves; and simfhe's bootstrap depth is the plan's.
func TestPolynomialScheduleMatchesPlan(t *testing.T) {
	ev, ct := polyFixture(t)
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	for _, basis := range []ckks.Basis{ckks.Monomial, ckks.Chebyshev} {
		// Degree 1 is a single leaf: no multiplication, one level.
		for _, d := range []int{1, 2, 3, 7, 15, 31, 63} {
			mults, depth := mathutil.NewPSPlan(d).Cost()
			before := rec.Counter("ckks.mult")
			out := ev.EvalPolynomial(basis, alternating(d), ct)[0]
			if got := int(rec.Counter("ckks.mult") - before); got != mults {
				t.Errorf("basis %d degree %d: %d multiplications, plan says %d", basis, d, got, mults)
			}
			if got := ct.Level - out.Level; got != depth {
				t.Errorf("basis %d degree %d: %d levels consumed, plan says %d", basis, d, got, depth)
			}
		}
	}
	if mults, depth := mathutil.NewPSPlan(1).Cost(); mults != 0 || depth != 1 {
		t.Errorf("degree-1 plan costs (%d mults, %d levels), want (0, 1)", mults, depth)
	}

	bp := DefaultParameters()
	sineMults, sineDepth := mathutil.NewPSPlan(bp.SineDegree).Cost()
	sim := simfhe.Params{L: 30, FFTIter: 3, LogN: 10, SineDegree: bp.SineDegree, DoubleAngle: bp.DoubleAngle}
	if got, want := sim.L-1-sim.BootPlan().LevelAfter, 2*sim.FFTIter+sineDepth+bp.DoubleAngle; got != want {
		t.Errorf("simfhe prices a bootstrap at %d levels, the DFTs, the plan and the double-angle steps take %d", got, want)
	}

	if testing.Short() {
		return
	}
	btp, params, sk := vaultBootstrapper(t)
	rec = obs.NewRecorder()
	btp.Evaluator().SetRecorder(rec)
	in := ckks.NewSecretKeyEncryptor(params, sk, bootSource()).Encrypt(ckks.NewEncoder(params).Encode(make([]complex128, params.Slots())))
	btp.Bootstrap(btp.Evaluator().DropLevel(in, 0))
	spans := rec.Snapshot().SpansNamed("bootstrap.EvalMod")
	if len(spans) != 1 {
		t.Fatalf("%d bootstrap.EvalMod spans, want 1", len(spans))
	}
	if got, want := spans[0].Counters["ckks.mult"], uint64(2*(sineMults+bp.DoubleAngle)); got != want {
		t.Errorf("EvalMod ran %d multiplications over its two halves, the plan says %d", got, want)
	}
}

// TestNewBootstrapperChainBudget: a chain too short for the pipeline is a
// returned error naming it — before anything is encoded or keyed, never a
// panic, and never a bootstrapper whose first Bootstrap would rescale at
// level 0 — and the shortest chains that fit refresh to the level the
// budget says. DefaultParameters consume 3 + (7 + 3) + 2 = 15 levels.
func TestNewBootstrapperChainBudget(t *testing.T) {
	for _, tc := range []struct{ limbs, outLevel int }{
		{4, -1}, {8, -1}, {14, -1}, {15, -1}, {16, 0}, {17, 1},
	} {
		t.Run(fmt.Sprintf("%d-limbs", tc.limbs), func(t *testing.T) {
			logQ := []int{48}
			for len(logQ) < tc.limbs {
				logQ = append(logQ, 40)
			}
			params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 9, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40})
			if err != nil {
				t.Fatal(err)
			}
			src := bootSource()
			sk := ckks.NewKeyGenerator(params, src).GenSecretKeySparse(16)
			btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, true)
			if tc.outLevel < 0 {
				if err == nil || !strings.Contains(err.Error(), "chain too short") || !strings.Contains(err.Error(), fmt.Sprintf("%d Q-limbs", tc.limbs)) {
					t.Fatalf("NewBootstrapper on %d limbs returned %v, want a chain-too-short error naming the chain", tc.limbs, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			enc := ckks.NewEncoder(params)
			rng := rand.New(rand.NewPCG(22, 33))
			msg := make([]complex128, params.Slots())
			for i := range msg {
				msg[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			in := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(msg))
			out := btp.Bootstrap(btp.Evaluator().DropLevel(in, 0))
			if out.Level != tc.outLevel {
				t.Errorf("refreshed to level %d, want %d", out.Level, tc.outLevel)
			}
			if e := maxErrC(msg, enc.Decode(ckks.NewDecryptor(params, sk).DecryptToPlaintext(out))); e > 1e-3 {
				t.Errorf("bootstrap error %.3g too large", e)
			}
		})
	}
}
