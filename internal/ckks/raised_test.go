package ckks

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fherr"
	"repro/internal/mathutil"
	"repro/internal/obs"
)

// wire returns the serialized form of ct: what a client would receive.
func wire(t *testing.T, ct *Ciphertext) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergedOpsAreTheUnfusedCompositions is the oracle of the ModDown
// merge: every entry that closes a raised product or transform with one
// division by P·q_ℓ serializes to the bytes of the composition of public
// ops it replaces, and the shared tensor core gives Square the bytes of
// MulRelin on two copies — under every worker count and key budget. A
// changed residue in either closer, the lift, the linear middle or the
// symmetric tensor fails it.
func TestMergedOpsAreTheUnfusedCompositions(t *testing.T) {
	diagIdx := []int{0, 1, 3, 9, 20}
	tc := newTestContext(t)
	p := tc.params
	lt := NewLinearTransform(tc.enc, DiagsFromMatrix(randomBandedMatrix(p.Slots(), diagIdx)), p.MaxLevel(), p.Scale(), 4, false)
	keys := &EvaluationKeySet{
		Rlk:    tc.kg.GenRelinearizationKey(tc.sk, true),
		Galois: tc.kg.GenRotationKeys(lt.RotationSteps(), tc.sk, true),
	}
	keys.Rlk.DropExpanded()
	for _, gk := range keys.Galois {
		gk.DropExpanded()
	}
	a, b := encryptRandom(tc), encryptRandom(tc)
	low := NewEvaluator(p, nil).DropLevel(a, 1) // the last level a merged op accepts

	budgets := map[string]int64{"tiny": 1, "one-key": int64(p.Beta(p.MaxLevel())) * digitBytes(p), "unlimited": 0}
	// Every merged op's bytes, keyed by op/budget/workers: the scalar and
	// the vector kernels must write the same ones.
	merged := map[string][]byte{}
	withKernels(t, func(kernel string) {
		for name, budget := range budgets {
			for _, w := range evalWorkerCounts() {
				ev := NewEvaluator(p, cloneKeySet(t, keys), WithWorkers(w), WithKeyBudget(budget))
				for _, c := range []struct {
					op          string
					got, oracle *Ciphertext
				}{
					{"Mul", ev.Mul(a, b), ev.Rescale(ev.MulRelin(a, b))},
					{"Mul at level 1", ev.Mul(low, b), ev.Rescale(ev.MulRelin(low, b))},
					{"Square", ev.Square(a), ev.MulRelin(a, a.CopyNew())},
					{"DoubleAngle", ev.DoubleAngle(a)[0], func() *Ciphertext {
						sq := ev.MulRelin(a, a.CopyNew())
						return ev.Rescale(ev.AddConstReal(ev.Add(sq, sq), -1))
					}()},
					{"EvalLinearTransformRescale", ev.EvalLinearTransformRescale(a, lt), ev.Rescale(ev.EvalLinearTransform(a, lt))},
				} {
					got := wire(t, c.got)
					if !bytes.Equal(got, wire(t, c.oracle)) {
						t.Errorf("%s kernels budget=%s workers=%d: %s differs from the unfused composition", kernel, name, w, c.op)
					}
					key := fmt.Sprintf("%s/%s/%d", c.op, name, w)
					if prev, ok := merged[key]; ok && !bytes.Equal(got, prev) {
						t.Errorf("%s: the %s kernels write other bytes than the scalar ones", key, kernel)
					}
					merged[key] = got
				}
			}
		}
	})
}

// TestChebyshevPowerIsTheUnfusedRecurrence covers the one linear middle
// only the polynomial executor uses: T_{i+j} = 2·T_i·T_j − T_{i−j} with the
// aligned T_{i−j} subtracted from the raised product.
func TestChebyshevPowerIsTheUnfusedRecurrence(t *testing.T) {
	tc, ev := polyTestContext(t)
	x := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	pe := &polyEval{ev: ev, basis: Chebyshev, b: [][]*Ciphertext{make([]*Ciphertext, 4)}}
	b := pe.b[0]
	b[1] = x
	b[2] = ev.mulRescale([]mulPair{pe.power(0, mathutil.PSStep{K: 2, I: 1, J: 1})})[0]
	got := ev.mulRescale([]mulPair{pe.power(0, mathutil.PSStep{K: 3, I: 2, J: 1})})[0]

	prod := ev.MulRelin(b[2], b[1])
	prod = ev.Add(prod, prod)
	td := b[1]
	prod = ev.Sub(prod, ev.MulByConstReal(td.atLevel(prod.Level), 1, prod.Scale/td.Scale))
	if oracle := ev.Rescale(prod); !bytes.Equal(wire(t, got), wire(t, oracle)) {
		t.Error("the power step b_3 = b_2·b_1 differs from Rescale(2·MulRelin(T_2, T_1) − aligned T_1)")
	}
}

// rejectedBeforeAnyWork runs op on the level-0 ciphertext a through Do and
// demands the typed level error of the unfused composition with no key
// switch, tensor, transform or rotation counted and no ModUp entered.
func rejectedBeforeAnyWork(t *testing.T, ev *Evaluator, op string, call coreOp, a *Ciphertext) {
	t.Helper()
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	defer ev.SetRecorder(nil)
	out, err := ev.Do(context.Background(), op, call, a)
	if out != nil || !errors.Is(err, fherr.ErrLevelMismatch) {
		t.Errorf("%s at level 0: got (%v, %v), want a typed level mismatch", op, out, err)
	}
	for _, name := range []string{"ckks.keyswitch", "ckks.mult", "ring.ntt", "ring.intt", "ckks.rotate"} {
		if n := rec.Counter(name); n != 0 {
			t.Errorf("%s at level 0 counted %s = %d before failing, want 0", op, name, n)
		}
	}
	if n := len(rec.Snapshot().SpansNamed("rns.ModUpDigit")); n != 0 {
		t.Errorf("%s at level 0 entered rns.ModUpDigit %d times before failing", op, n)
	}
}

// TestMulRejectsLevelZeroBeforeAnyWork: a product that can only fail its
// rescale must fail before the key switch, not after it — through fhed
// that key switch is an admission slot and the tenant lock held for
// nothing.
func TestMulRejectsLevelZeroBeforeAnyWork(t *testing.T) {
	tc, ev := checkedTestEval(t)
	a := ev.DropLevel(encryptRandom(tc), 0)
	rejectedBeforeAnyWork(t, ev, "ckks.Mul", func(ev *Evaluator) *Ciphertext { return ev.Mul(a, a) }, a)
}

// TestMergedEntriesRejectLevelZeroBeforeAnyWork: the same for the other
// two entries that end in the merged division.
func TestMergedEntriesRejectLevelZeroBeforeAnyWork(t *testing.T) {
	tc, ev := checkedTestEval(t)
	a := ev.DropLevel(encryptRandom(tc), 0)
	rejectedBeforeAnyWork(t, ev, "ckks.DoubleAngle", func(ev *Evaluator) *Ciphertext { return ev.DoubleAngle(a)[0] }, a)
	_, ltEv, lt, _ := setupLinTransTest(t, []int{0, 1}, 0)
	rejectedBeforeAnyWork(t, ltEv, "ckks.EvalLinearTransformRescale", func(ev *Evaluator) *Ciphertext { return ev.EvalLinearTransformRescale(a, lt) }, a)
}
