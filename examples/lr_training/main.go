// LR training: the paper's headline application (Figure 6 a–e), shown two
// ways.
//
//  1. A miniature encrypted logistic-regression training run with the
//     functional CKKS library on synthetic data — a working instance of
//     the HELR algorithm's inner loop (inner products by rotate-and-sum,
//     a polynomial sigmoid, and a gradient step, all under encryption).
//  2. The full HELR workload pushed through the SimFHE model on each
//     hardware design, with and without the MAD optimizations.
package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ckks"
	"repro/internal/prng"
	"repro/internal/simfhe"
	"repro/internal/simfhe/apps"
	"repro/internal/simfhe/design"
)

func main() {
	fmt.Println("=== Part 1: functional mini-LR on encrypted data ===")
	functionalLR()
	fmt.Println("\n=== Part 2: full HELR workload through the simulator ===")
	simulatedLR()
}

// functionalLR trains w for a 1D logistic model on encrypted data: each
// slot holds one training example; one gradient-descent step per level.
func functionalLR() {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     11,
		LogQ:     []int{50, 40, 40, 40, 40, 40, 40, 40, 40},
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		panic(err)
	}
	src, _ := prng.NewRandomSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk, true)
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	dec := ckks.NewDecryptor(params, sk)
	gks := kg.GenRotationKeys(ckks.InnerSumRotations(params.Slots()), sk, true)
	eval := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks})

	// Synthetic data: y ≈ sigmoid(2.5·x); one example per slot.
	n := params.Slots()
	xs := make([]complex128, n)
	ys := make([]complex128, n)
	trueW := 2.5
	for i := range xs {
		x := rand.Float64()*2 - 1
		p := 1 / (1 + math.Exp(-trueW*x))
		label := 0.0
		if rand.Float64() < p {
			label = 1
		}
		xs[i] = complex(x, 0)
		ys[i] = complex(label, 0)
	}
	ctX := encryptor.Encrypt(enc.Encode(xs))

	// Plain-side reference weight and the encrypted weight (broadcast to
	// all slots so slot-wise ops act like scalar ops).
	w := 0.0
	ctW := encryptor.Encrypt(enc.Encode(constVec(n, w)))

	lr := 4.0
	steps := 2
	for s := 0; s < steps; s++ {
		// z = w ⊙ x — the HELR forward pass.
		ctZ := eval.Mul(ctW, eval.DropLevel(ctX, ctW.Level))
		// σ(z) via the HELR degree-7 polynomial (4 levels).
		ctSig := eval.EvalPolynomial(ctZ, ckks.Monomial, ckks.SigmoidCoeffs())
		// grad_i = (σ(z) − y_i) ⊙ x_i, then the slot mean by the same
		// rotate-and-sum ladder HELR uses for Xᵀ·e.
		ctY := enc.EncodeAtLevel(ys, ctSig.Scale, ctSig.Level)
		ctErr := eval.SubPlain(ctSig, ctY)
		ctGrad := eval.Mul(ctErr, eval.DropLevel(ctX, ctErr.Level))
		ctGradMean := eval.InnerSum(ctGrad, n)

		mean := real(enc.Decode(dec.DecryptToPlaintext(ctGradMean))[0]) / float64(n)
		w -= lr * mean
		ctW = encryptor.Encrypt(enc.Encode(constVec(n, w))) // re-encrypt ("bootstrap" stand-in)
		fmt.Printf("  step %d: encrypted-gradient mean %+.4f, w = %+.4f (target %.1f)\n", s+1, mean, w, trueW)
	}
	if w <= 0 {
		panic("lr_training: weight did not move toward the target")
	}
}

func constVec(n int, v float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(v, 0)
	}
	return out
}

// simulatedLR runs the full HELR schedule through SimFHE on each design.
func simulatedLR() {
	w := apps.HELR()
	fmt.Printf("workload: %s (%d iterations, %d levels each)\n", w.Name, w.Units, w.LevelsUsed)
	for _, d := range design.All() {
		orig := apps.Run(w, d, simfhe.Baseline(), simfhe.CachingOpts())
		mad := apps.Run(w, d.WithMemory(32), simfhe.Optimal(), simfhe.AllOpts())
		fmt.Printf("  %-18s original %8.3f s (%2d bootstraps)  +MAD@32MB %8.3f s (%2d bootstraps)  -> %.1fx\n",
			d.Name, orig.RuntimeS, orig.Bootstraps, mad.RuntimeS, mad.Bootstraps, orig.RuntimeS/mad.RuntimeS)
	}
}
