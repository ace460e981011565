package bootstrap

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ckks"
	"repro/internal/mathutil"
	"repro/internal/obs"
)

// planParams returns a chain of the given ring degree just long enough
// for DefaultParameters: 16 Q limbs, so the refresh lands at level 0.
func planParams(t *testing.T, logN int) *ckks.Parameters {
	t.Helper()
	logQ := []int{48}
	for len(logQ) < 16 {
		logQ = append(logQ, 40)
	}
	p, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// builtPattern returns, ascending, the generalized diagonals of FFT
// stages [from, to) over n slots that hold an entry above
// groupMatrixDiags' former cut-off (1e-12): the index set the numeric
// extraction found before the plan supplied it. The stages pair slots
// only inside blocks — of n >> from slots in the encode direction, of
// 2^to in the decode direction (ApplyFFTStages' outer loops) — so one
// vector carries one unit column per block, and each output slot belongs
// to the column of its own block. Once every diagonal is found no column
// can add one.
func builtPattern(enc *ckks.Encoder, n, from, to int, inverse bool) []int {
	block := 1 << to
	if inverse {
		block = n >> from
	}
	nonzero, found := make([]bool, n), 0
	col := make([]complex128, n)
	for c := 0; c < block && found < n; c++ {
		clear(col)
		for k := c; k < n; k += block {
			col[k] = 1
		}
		enc.ApplyFFTStages(col, from, to, inverse)
		for base := 0; base < n; base += block {
			for t, v := range col[base : base+block] {
				if d := (c - t + n) % n; !nonzero[d] && real(v)*real(v)+imag(v)*imag(v) > 1e-24 {
					nonzero[d] = true
					found++
				}
			}
		}
	}
	var idx []int
	for d, ok := range nonzero {
		if ok {
			idx = append(idx, d)
		}
	}
	return idx
}

// TestPlanMatchesBuiltDiagonals: the plan's closed-form diagonal index
// sets are the nonzero patterns of the FFT stages the bootstrapper
// encodes, at logN 9–13, fftIter 1–4, in both directions, and each
// group's planned n1 is the split NewLinearTransform computes from that
// set (checked by building the transform, at level 0, where it has few
// diagonals).
func TestPlanMatchesBuiltDiagonals(t *testing.T) {
	for logN := 9; logN <= 13; logN++ {
		params := planParams(t, logN)
		enc := ckks.NewEncoder(params)
		n := params.Slots()
		for iter := 1; iter <= 4; iter++ {
			plan := mathutil.NewBootPlan(logN-1, params.MaxLevel(), mathutil.BootShape{CtSIter: iter, StCIter: iter, SineDegree: 31, DoubleAngle: 3})
			for _, dir := range []struct {
				name    string
				inverse bool
				groups  []mathutil.DFTGroup
			}{{"CoeffToSlot", true, plan.CoeffToSlot}, {"SlotToCoeff", false, plan.SlotToCoeff}} {
				for i, g := range dir.groups {
					name := fmt.Sprintf("logN %d fftIter %d %s[%d]", logN, iter, dir.name, i)
					built := builtPattern(enc, n, g.From, g.To, dir.inverse)
					if !slices.Equal(g.Diags, built) {
						t.Errorf("%s: plan holds %d diagonals %v, the stages %d", name, len(g.Diags), g.Diags, len(built))
						continue
					}
					if len(built) > 64 {
						continue
					}
					diags := make(map[int][]complex128, len(built)) // the split reads only the index set
					for _, d := range built {
						diags[d] = make([]complex128, n)
					}
					if lt := ckks.NewLinearTransform(enc, diags, 0, params.Scale(), 0, false); lt.N1 != g.N1 {
						t.Errorf("%s: plan splits at n1 = %d, NewLinearTransform at %d", name, g.N1, lt.N1)
					}
				}
			}
		}
	}
}

// TestPlanMatchesExecutor: a recorded bootstrap runs the plan it was built
// from. At logN 9–13 the ckks.Mult spans under bootstrap.EvalMod are the
// plan's EvalMod batches, level and fanout, in order; the transforms sit
// at the planned levels with the planned splits; and the refreshed
// ciphertext lands at the plan's LevelAfter.
func TestPlanMatchesExecutor(t *testing.T) {
	for logN := 9; logN <= 13; logN++ {
		t.Run(fmt.Sprintf("logN%d", logN), func(t *testing.T) {
			if logN > 11 && testing.Short() {
				t.Skip("keying a bootstrap at logN > 11 takes seconds; skipped in -short")
			}
			params := planParams(t, logN)
			src := bootSource()
			sk := ckks.NewKeyGenerator(params, src).GenSecretKeySparse(16)
			btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, true)
			if err != nil {
				t.Fatal(err)
			}
			plan := btp.Plan()
			for _, dir := range []struct {
				groups []mathutil.DFTGroup
				dft    homomorphicDFT
			}{{plan.CoeffToSlot, btp.cts}, {plan.SlotToCoeff, btp.stc}} {
				for i, g := range dir.groups {
					if lt := dir.dft[i]; lt.Level != g.Level || lt.N1 != g.N1 {
						t.Errorf("group %d at level %d, n1 %d; plan %d, %d", i, lt.Level, lt.N1, g.Level, g.N1)
					}
				}
			}

			rec := obs.NewRecorder(obs.WithSpanCap(1 << 12))
			btp.Evaluator().SetRecorder(rec)
			in := ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(ckks.NewEncoder(params).Encode(make([]complex128, params.Slots())))
			out := btp.Bootstrap(btp.Evaluator().DropLevel(in, 0))
			if out.Level != plan.LevelAfter {
				t.Errorf("refreshed to level %d, plan says %d", out.Level, plan.LevelAfter)
			}

			snap := rec.Snapshot()
			evalMod := snap.SpansNamed("bootstrap.EvalMod")
			if len(evalMod) != 1 {
				t.Fatalf("%d bootstrap.EvalMod spans, want 1", len(evalMod))
			}
			var got []mathutil.MultBatch
			for _, sp := range snap.SpansNamed("ckks.Mult") {
				if sp.Parent == evalMod[0].ID {
					got = append(got, mathutil.MultBatch{Level: int(sp.Attrs["ct.level"]), Fanout: int(sp.Attrs["op.fanout"])})
				}
			}
			if !slices.Equal(got, plan.EvalMod) {
				t.Errorf("EvalMod ran Mult batches (level, fanout) %v, plan says %v", got, plan.EvalMod)
			}
		})
	}
}
