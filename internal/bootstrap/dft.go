package bootstrap

import (
	"fmt"
	"math/cmplx"
	"slices"
	"sort"

	"repro/internal/ckks"
	"repro/internal/mathutil"
)

// homomorphicDFT is a factorized DFT (or inverse DFT): one plaintext
// matrix–vector product (the paper's PtMatVecMult) per group of radix-2
// butterfly stages, each costing one level. The bit-reversal permutation
// of the plain FFT is elided entirely — it commutes with the slot-wise
// EvalMod sitting between CoeffToSlot and SlotToCoeff, so the two
// factorizations cancel it between themselves.
type homomorphicDFT []*ckks.LinearTransform

// buildDFT encodes the plan's CoeffToSlot (inverse, encode-direction
// stages) or SlotToCoeff groups at their planned levels, diagonals and
// splits: only the diagonal values are computed here. fold is a real
// constant spread evenly over the groups (how bootstrapping performs its
// divisions by 2n, K·q0/Δ, etc. for free).
func buildDFT(enc *ckks.Encoder, params *ckks.Parameters, groups []mathutil.DFTGroup, inverse bool, fold float64) homomorphicDFT {
	if stages := enc.FFTStageCount(); len(groups) < 1 || len(groups) > stages {
		panic(fmt.Sprintf("bootstrap: fftIter %d outside [1,%d]", len(groups), stages))
	}
	perGroupFold := cmplx.Pow(complex(fold, 0), complex(1/float64(len(groups)), 0))
	var dft homomorphicDFT
	for _, g := range groups {
		diags := groupMatrixDiags(enc, params.Slots(), g.From, g.To, inverse, perGroupFold, g.Diags)
		dft = append(dft, ckks.NewLinearTransform(enc, diags, g.Level, params.Scale(), g.N1, false))
	}
	return dft
}

// groupMatrixDiags numerically extracts the diagonals idx of FFT stages
// [from, to) scaled by fold: column k (e_k through the stages) files its
// entry t under diagonal (k − t) mod n.
func groupMatrixDiags(enc *ckks.Encoder, n, from, to int, inverse bool, fold complex128, idx []int) map[int][]complex128 {
	diags := make(map[int][]complex128, len(idx))
	for _, d := range idx {
		diags[d] = make([]complex128, n)
	}
	col := make([]complex128, n)
	for k := range n {
		clear(col)
		col[k] = fold
		enc.ApplyFFTStages(col, from, to, inverse)
		for d, vec := range diags {
			t := (k - d + n) % n
			vec[t] = col[t]
		}
	}
	return diags
}

// rotationSteps returns, ascending, the rotation indices the DFT's groups
// need Galois keys for. Sorted, so key generation consumes its PRNG stream
// in the same order on every construction.
func (d homomorphicDFT) rotationSteps() []int {
	var steps []int
	for _, lt := range d {
		steps = append(steps, lt.RotationSteps()...)
	}
	sort.Ints(steps)
	return slices.Compact(steps)
}

// apply evaluates the groups in order, rescaling after each.
func (d homomorphicDFT) apply(ev *ckks.Evaluator, ct *ckks.Ciphertext) *ckks.Ciphertext {
	for _, lt := range d {
		if ct.Level > lt.Level {
			ct = ev.DropLevel(ct, lt.Level)
		}
		ct = ev.EvalLinearTransformRescale(ct, lt)
	}
	return ct
}
