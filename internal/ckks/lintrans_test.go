package ckks

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/mathutil"
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
// (computed, a baby-step count that divides no slot count, one that does,
// the strided set's stride and twice it) × diagonal 0 present, absent and
// a strided index set whose only baby step at its stride is 0 × both
// exported names is decrypt-compared with the plaintext shadow and with
// the textbook rotate-multiply-add reference. n1 = 5 under the second
// name stands where n1 = 3 stood, the combination that returned garbage
// (0.9 bits) while two encodings and two schedules existed: n1 = 3 now
// walks more Horner steps than these sets have diagonals and is refused
// (TestLinearTransformRejectsGappedN1).
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
	// Per set, the computed split and explicit ones: n1 = 5 divides no
	// slot count (one Horner chain), n1 = 8 does (two); the strided set at
	// multiples of its stride, where its giant multiples have no gaps.
	for _, set := range []struct {
		name string
		idx  []int
		n1s  []int
	}{
		{"diag0", []int{0, 1, 3, 9, 20}, []int{0, 5, 8}},
		{"no-diag0", []int{2, 6, 11, 17}, []int{0, 5, 8}},
		{"strided", strided, []int{0, 32, 64}},
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

		for _, n1 := range set.n1s {
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

// TestLinearTransformRejectsGappedN1: an explicit n1 whose Horner chains
// walk more steps than the transform has diagonals — the strided set
// {0, 32, …, 224} at n1 = 3 would take 74 for 8 diagonals, one per multiple
// of 3 up to 74 — panics at construction with both counts, before any
// diagonal is encoded; at its stride the same set takes 7.
func TestLinearTransformRejectsGappedN1(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	strided := make([]int, 8)
	for i := range strided {
		strided[i] = 32 * i
	}
	diags := DiagsFromMatrix(randomBandedMatrix(n, strided))
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "got=74 Horner steps") || !strings.Contains(msg, "want<=8") {
				t.Errorf("strided set at n1=3: recovered %q, want a panic naming 74 Horner steps against 8 diagonals", msg)
			}
		}()
		NewLinearTransform(tc.enc, diags, tc.params.MaxLevel(), tc.params.Scale(), 3, false)
	}()
	lt := NewLinearTransform(tc.enc, diags, tc.params.MaxLevel(), tc.params.Scale(), 32, false)
	if got := lt.chains[0].steps() + lt.chains[1].steps(); got != 7 {
		t.Errorf("strided set at n1=32: %d Horner steps, want 7", got)
	}
}

// TestLinearTransformTwoSidedChains: a band of diagonals −20 … 20 splits at
// n1 = 8 into seven baby steps, the group of giant step 0 and groups on
// both sides of it — two Horner chains, 2 steps by σ_{+8} and 3 by σ_{−8},
// keyed by one Galois key each. Under workers {1, 2} × key budgets
// {unlimited, a quarter of the keys, 1 byte} it is decrypt-compared with
// the plaintext product and the textbook reference, its counters are the
// schedule's (12 keyed steps, 2 + 5 ModDowns), and every run writes the
// same bytes. At n1 = 3, which does not divide the slots, a −3 step does
// not land on a multiple of 3, so every giant group would ride the +3
// chain, diagonal −1 at its ⌊(slots−1)/3⌋-th step: far more steps than the
// band has diagonals, so the split is refused.
func TestLinearTransformTwoSidedChains(t *testing.T) {
	tc := newTestContext(t)
	p := tc.params
	n := p.Slots()
	var idx []int
	for d := -20; d <= 20; d++ {
		idx = append(idx, (d+n)%n)
	}
	m := randomBandedMatrix(n, idx)
	diags := DiagsFromMatrix(m)
	x := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(x))
	want := applyMatrix(m, x)
	decode := func(out *Ciphertext) []complex128 {
		return tc.enc.Decode(tc.dec.DecryptToPlaintext(NewEvaluator(p, nil).Rescale(out)))
	}
	ref := Precision(want, decode(textbookTransform(tc, ct, diags))).MinPrecisionBits

	lt := NewLinearTransform(tc.enc, diags, p.MaxLevel(), p.Scale(), 0, false)
	steps := lt.RotationSteps()
	if wantSteps := []int{1, 2, 3, 4, 5, 6, 7, 8, n - 8}; lt.N1 != 8 || !slices.Equal(steps, wantSteps) {
		t.Fatalf("split %d, RotationSteps %v; want 8 and %v", lt.N1, steps, wantSteps)
	}
	keys := &EvaluationKeySet{Galois: tc.kg.GenGaloisKeys(steps, tc.sk)}
	var first *Ciphertext
	for _, budget := range []int64{0, int64(len(steps)*p.Dnum()) * digitBytes(p) / 4, 1} {
		for _, w := range []int{1, 2} {
			ev := NewEvaluator(p, cloneKeySet(t, keys), WithWorkers(w), WithKeyBudget(budget))
			rec := obs.NewRecorder()
			ev.SetRecorder(rec)
			out := ev.EvalLinearTransform(ct, lt)
			ev.SetRecorder(nil)
			got := Precision(want, decode(out)).MinPrecisionBits
			t.Logf("budget=%d workers=%d: %.1f bits, textbook reference %.1f", budget, w, got, ref)
			if got < ref-0.5 || got < 20 {
				t.Errorf("budget=%d workers=%d: %.1f bits, textbook reference %.1f", budget, w, got, ref)
			}
			if r, d := rec.Counter("ckks.rotate"), len(rec.Snapshot().SpansNamed("rns.ModDown")); r != 12 || d != 7 {
				t.Errorf("budget=%d workers=%d: %d keyed steps and %d ModDowns, want 12 and 7", budget, w, r, d)
			}
			if first == nil {
				first = out
			} else if !ctEqual(out, first) {
				t.Errorf("budget=%d workers=%d: output differs from the first run's", budget, w)
			}
		}
	}

	func() {
		defer func() {
			if msg, far := fmt.Sprint(recover()), (n-1)/3; !strings.Contains(msg, fmt.Sprintf("got=%d Horner steps", far)) {
				t.Errorf("n1=3: recovered %q, want a refusal naming the %d steps of the +3 chain to diagonal −1", msg, far)
			}
		}()
		NewLinearTransform(tc.enc, diags, p.MaxLevel(), p.Scale(), 3, false)
	}()
}

// TestLinearTransformMissingKeyPanicsFirst: a transform whose key set lacks
// its giant chain's one Galois key (σ_{n1}) panics with the typed-message
// key error on the calling goroutine before any kernel ran — not from a
// worker, and not after the baby steps were paid for.
func TestLinearTransformMissingKeyPanicsFirst(t *testing.T) {
	tc, ev, lt, _ := setupLinTransTest(t, []int{0, 1, 2, 5, 9}, 4)
	delete(ev.Keys().Galois, tc.params.RingQ().GaloisElement(4))
	ev.SetWorkers(2)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	defer ev.SetRecorder(nil)
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Galois key missing") {
				t.Errorf("recovered %q, want the missing-Galois-key panic", msg)
			}
		}()
		ev.EvalLinearTransform(ct, lt)
		t.Error("transform ran without its giant-step key")
	}()
	if snap := rec.Snapshot(); transforms(snap.Counters) != 0 || snap.Counters["ckks.key.bytes"] != 0 {
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
		if got := mathutil.ChooseN1(c.idx, c.slots); got != c.want {
			t.Errorf("%s: n1 = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestHornerSplit pins how the giant multiples divide between the two
// chains: the fewest Horner steps, then one chain rather than two (one
// Galois key fewer), then the longer +n1 chain. At n1 = 1 over k slots
// the giant multiples are the diagonal indices themselves.
func TestHornerSplit(t *testing.T) {
	for _, c := range []struct {
		name           string
		ms             []int
		k              int
		up, down, step int
	}{
		{"none", nil, 8, 0, 0, 0},
		{"contiguous from +1", []int{1, 2, 3, 4}, 128, 4, 0, 4},
		{"one giant just below 0", []int{31}, 32, 0, 1, 1},
		{"{+8, -16, -8} at n1 = 8", []int{1, 30, 31}, 32, 1, 2, 3},
		{"3 steps either way: one chain wins", []int{1, 2, 3}, 4, 3, 0, 3},
		{"k/2 alone: the +n1 chain wins the tie", []int{2}, 4, 2, 0, 2},
		{"a gap makes two chains cheaper", []int{1, 6, 7}, 8, 1, 2, 3},
	} {
		m := mathutil.NewMatVec(0, c.ms, c.k, 1)
		if up, down, steps := m.Up, m.Giants-m.Up, m.Giants; up != c.up || down != c.down || steps != c.step {
			t.Errorf("%s: split of %v over %d = (%d, %d, %d), want (%d, %d, %d)", c.name, c.ms, c.k, up, down, steps, c.up, c.down, c.step)
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
