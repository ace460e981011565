package ckks

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// applyMatrix computes M·x in the clear for reference.
func applyMatrix(m [][]complex128, x []complex128) []complex128 {
	n := len(m)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i] += m[i][j] * x[j]
		}
	}
	return out
}

// randomBandedMatrix returns an n×n matrix with the given nonzero
// generalized diagonals.
func randomBandedMatrix(n int, diagIdx []int) [][]complex128 {
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
	}
	for _, d := range diagIdx {
		for t := 0; t < n; t++ {
			m[t][(t+d)%n] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
		}
	}
	return m
}

// setupLinTransTest builds a random matrix with the given diagonals, its
// transform, and an evaluator holding exactly the transform's own keys.
func setupLinTransTest(t *testing.T, diagIdx []int, n1 int) (*testContext, *Evaluator, *LinearTransform, [][]complex128) {
	tc := newTestContext(t)
	m := randomBandedMatrix(tc.params.Slots(), diagIdx)
	lt := NewLinearTransform(tc.enc, DiagsFromMatrix(m), tc.params.MaxLevel(), tc.params.Scale(), n1, false)
	gks := tc.kg.GenRotationKeys(lt.RotationSteps(), tc.sk, false)
	return tc, NewEvaluator(tc.params, &EvaluationKeySet{Galois: gks}), lt, m
}

// textbookTransform is the reference PtMatVecMult, built from public
// single ops only: Σ_d MulPlain(Rotate(ct, d), Encode(diag_d)).
func textbookTransform(tc *testContext, ct *Ciphertext, diags map[int][]complex128) *Ciphertext {
	steps := make([]int, 0, len(diags))
	for d := range diags {
		steps = append(steps, d)
	}
	sort.Ints(steps)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Galois: tc.kg.GenRotationKeys(steps, tc.sk, false)})
	var acc *Ciphertext
	for _, d := range steps {
		term := ev.MulPlain(ev.Rotate(ct, d), tc.enc.Encode(diags[d]))
		if acc == nil {
			acc = term
		} else {
			acc = ev.Add(acc, term)
		}
	}
	return acc
}

// TestLinearTransformBSGS pins the one transform schedule: every split
// (computed, none, a baby-step count that divides nothing, one that
// divides every index of the strided set) × diagonal 0 present, absent
// and a strided index set whose only baby step is 0 × both exported names
// is decrypt-compared with the plaintext shadow and with the textbook
// rotate-multiply-add reference. n1 = 3 under the second name is the
// combination that returned garbage (0.9 bits) while two encodings and two
// schedules existed.
func TestLinearTransformBSGS(t *testing.T) {
	strided := make([]int, 8)
	for i := range strided {
		strided[i] = 32 * i
	}
	names := []struct {
		name string
		eval func(*Evaluator, *Ciphertext, *LinearTransform) *Ciphertext
	}{
		{"EvalLinearTransform", (*Evaluator).EvalLinearTransform},
		{"EvalLinearTransformHoistedModDown", (*Evaluator).EvalLinearTransformHoistedModDown},
	}
	for _, set := range []struct {
		name string
		idx  []int
	}{
		{"diag0", []int{0, 1, 3, 9, 20}},
		{"no-diag0", []int{2, 6, 11, 17}},
		{"strided", strided},
	} {
		tc := newTestContext(t)
		n := tc.params.Slots()
		m := randomBandedMatrix(n, set.idx)
		diags := DiagsFromMatrix(m)
		x := randomValues(n, 1)
		ct := tc.encSk.Encrypt(tc.enc.Encode(x))
		want := applyMatrix(m, x)
		decode := func(out *Ciphertext) []complex128 {
			return tc.enc.Decode(tc.dec.DecryptToPlaintext(NewEvaluator(tc.params, nil).Rescale(out)))
		}
		ref := Precision(want, decode(textbookTransform(tc, ct, diags))).MinPrecisionBits

		for _, n1 := range []int{0, 1, 3, 8} {
			// The last argument is ignored; the rows pass both values.
			lt := NewLinearTransform(tc.enc, diags, tc.params.MaxLevel(), tc.params.Scale(), n1, n1%2 == 1)
			steps := lt.RotationSteps()
			if !sort.IntsAreSorted(steps) || (len(steps) > 0 && steps[0] <= 0) {
				t.Errorf("%s n1=%d: RotationSteps = %v, want ascending and positive", set.name, n1, steps)
			}
			gks := tc.kg.GenRotationKeys(steps, tc.sk, false)
			if _, dead := gks[1]; dead || len(gks) != len(steps) {
				t.Errorf("%s n1=%d: %d Galois keys for steps %v (identity key: %v)", set.name, n1, len(gks), steps, dead)
			}
			ev := NewEvaluator(tc.params, &EvaluationKeySet{Galois: gks})
			for _, nm := range names {
				got := Precision(want, decode(nm.eval(ev, ct, lt))).MinPrecisionBits
				t.Logf("%s n1=%d (split %d) %s: %.1f bits, textbook reference %.1f", set.name, n1, lt.N1, nm.name, got, ref)
				if got < ref-0.5 || got < 20 {
					t.Errorf("%s n1=%d (split %d) %s: %.1f bits, textbook reference %.1f", set.name, n1, lt.N1, nm.name, got, ref)
				}
			}
		}
	}
}

// TestLinearTransformMissingKeyPanicsFirst: a transform whose key set lacks
// one giant step's Galois key panics with the typed-message key error on
// the calling goroutine before any kernel ran — not from a worker, and not
// after the baby steps were paid for.
func TestLinearTransformMissingKeyPanicsFirst(t *testing.T) {
	tc, ev, lt, _ := setupLinTransTest(t, []int{0, 1, 2, 5, 9}, 4)
	delete(ev.Keys().Galois, tc.params.RingQ().GaloisElement(8))
	ev.SetWorkers(2)
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	defer ev.SetRecorder(nil)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Galois key missing") {
				t.Errorf("recovered %q, want the missing-Galois-key panic", msg)
			}
		}()
		ev.EvalLinearTransform(ct, lt)
		t.Error("transform ran without its giant-step key")
	}()
	if snap := rec.Snapshot(); snap.Counters["ckks.ntt"] != 0 || snap.Counters["ckks.key.bytes"] != 0 {
		t.Errorf("work was spent before the key check: %v", snap.Counters)
	}
}

// TestChooseN1 pins the computed split on the index sets the benchmark
// workloads produce.
func TestChooseN1(t *testing.T) {
	band := make([]int, 64) // matvec_hoisted: diagonals 1…64
	for i := range band {
		band[i] = i + 1
	}
	for _, c := range []struct {
		name  string
		idx   []int
		slots int
		want  int
	}{
		{"dense band 1..64: 15 babies + 4 giants", band, 2048, 16},
		{"strided multiples of 64: 3 baby steps, no giant", []int{0, 64, 128, 192}, 256, 256},
		{"strided multiples of 32: 3 babies + 1 giant ties 7 babies, smaller wins", []int{0, 32, 64, 96, 128, 160, 192, 224}, 256, 128},
		{"two-sided band ±7: 7 babies + giant -8", []int{0, 1, 2, 3, 4, 5, 6, 7, 249, 250, 251, 252, 253, 254, 255}, 256, 8},
		{"diagonal 0 alone", []int{0}, 256, 1},
		{"empty", nil, 256, 1},
	} {
		if got := chooseN1(c.idx, c.slots); got != c.want {
			t.Errorf("%s: n1 = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDiagsFromMatrix(t *testing.T) {
	n := 8
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
	}
	// Only diagonal 3 nonzero.
	for t2 := 0; t2 < n; t2++ {
		m[t2][(t2+3)%n] = complex(float64(t2), 0)
	}
	diags := DiagsFromMatrix(m)
	if len(diags) != 1 {
		t.Fatalf("got %d diagonals, want 1", len(diags))
	}
	vec, ok := diags[3]
	if !ok {
		t.Fatal("diagonal 3 missing")
	}
	for t2 := 0; t2 < n; t2++ {
		if vec[t2] != complex(float64(t2), 0) {
			t.Fatalf("diag[3][%d] = %v", t2, vec[t2])
		}
	}
}

func TestRotateVec(t *testing.T) {
	v := []complex128{0, 1, 2, 3}
	got := rotateVec(v, 1)
	want := []complex128{1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotateVec(+1) = %v", got)
		}
	}
	got = rotateVec(v, -1)
	want = []complex128{3, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotateVec(-1) = %v", got)
		}
	}
	// Identity for k ≡ 0 (mod n).
	got = rotateVec(v, 8)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("rotateVec(n) not identity: %v", got)
		}
	}
}
