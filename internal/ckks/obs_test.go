package ckks

import (
	"testing"

	"repro/internal/obs"
)

// obsTestEvaluator returns an evaluator with relinearization and rotation
// keys and an attached recorder, plus two fresh ciphertexts; the recorder
// holds nothing of their encryption.
func obsTestEvaluator(t *testing.T) (*Evaluator, *obs.Recorder, *Ciphertext, *Ciphertext) {
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	gks := tc.kg.GenRotationKeys([]int{1, 2}, tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk, Galois: gks})
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)

	vals := randomValues(tc.params.Slots(), 1)
	ct0 := tc.encSk.Encrypt(tc.enc.Encode(vals))
	ct1 := tc.encSk.Encrypt(tc.enc.Encode(vals))
	rec.Reset()
	return ev, rec, ct0, ct1
}

// transforms is the kernels' count of limb-sized forward and inverse
// NTTs in a set of recorder counters.
func transforms(counters map[string]uint64) uint64 {
	return counters["ring.ntt"] + counters["ring.intt"]
}

// TestRecorderCountsMult: one Mul is one ckks.Mult span that decomposes
// into tensor, ModUp, key product, lift and the two merged divisions —
// no nested MulRelin/KeySwitch/Rescale op any more — with counter totals
// that match the analytic accounting at the operation's level.
func TestRecorderCountsMult(t *testing.T) {
	ev, rec, ct0, ct1 := obsTestEvaluator(t)
	level := ct0.Level
	ev.Mul(ct0, ct1)

	snap := rec.Snapshot()
	beta := ev.Params().Beta(level)
	mult := snap.SpansNamed("ckks.Mult")
	if len(mult) != 1 {
		t.Fatalf("got %d ckks.Mult spans, want 1", len(mult))
	}
	children := map[string]int{}
	for _, sp := range snap.Spans {
		if sp.Parent == mult[0].ID {
			children[sp.Name]++
		}
	}
	for name, want := range map[string]int{
		"ckks.mult.tensor": 1, "rns.ModUpDigit": beta, "ckks.ks.product": 1, "ckks.mult.lift": 1, "rns.ModDown": 2,
	} {
		if children[name] != want {
			t.Errorf("%d %s children of Mult, want %d (all children: %v)", children[name], name, want, children)
		}
	}
	for _, name := range []string{"ckks.MulRelin", "ckks.KeySwitch", "ckks.Rescale", "rns.Rescale"} {
		if n := len(snap.SpansNamed(name)); n != 0 {
			t.Errorf("got %d %s spans, want 0: the merged Mult composes no unfused op", n, name)
		}
	}
	if got := rec.Counter("ckks.mult"); got != 1 {
		t.Errorf("ckks.mult = %d, want 1", got)
	}
	if got := rec.Counter("ckks.keyswitch"); got != 1 {
		t.Errorf("ckks.keyswitch = %d, want 1", got)
	}
	if got := rec.Counter("ckks.rescale"); got != 1 {
		t.Errorf("ckks.rescale = %d, want 1", got)
	}
	// The kernels' transform count: decomposeModUp β·(level+1+kP), then
	// per half one division by P·q_ℓ — kP+1 iNTTs of the dropped limbs,
	// level forward NTTs of the corrections. The unfused pair paid
	// 2·(level+1) more.
	kP := len(ev.Params().RingP().Moduli)
	want := uint64(beta*(level+1+kP) + 2*(kP+1+level))
	if got := transforms(rec.Snapshot().Counters); got != want {
		t.Errorf("ring.ntt + ring.intt = %d, want %d", got, want)
	}
	// The Mult span's counter deltas attribute the whole operation.
	if got := transforms(mult[0].Counters); got != want {
		t.Errorf("Mult span transform delta = %d, want %d", got, want)
	}
}

// TestRecorderCountsRotate: plain and hoisted rotations must agree on the
// keyswitch count while the hoisted path shares one decomposition.
func TestRecorderCountsRotate(t *testing.T) {
	ev, rec, ct0, _ := obsTestEvaluator(t)
	level := ct0.Level
	kP := len(ev.Params().RingP().Moduli)
	beta := ev.Params().Beta(level)

	ev.Rotate(ct0, 1)
	if got := rec.Counter("ckks.rotate"); got != 1 {
		t.Errorf("ckks.rotate = %d, want 1", got)
	}
	plainNTT := transforms(rec.Snapshot().Counters)

	rec.Reset()
	ev.RotateHoisted(ct0, []int{1, 2})
	snap := rec.Snapshot()
	if n := len(snap.SpansNamed("ckks.RotateHoisted")); n != 1 {
		t.Errorf("got %d RotateHoisted spans, want 1", n)
	}
	if got := rec.Counter("ckks.rotate"); got != 2 {
		t.Errorf("hoisted ckks.rotate = %d, want 2", got)
	}
	if got := rec.Counter("ckks.keyswitch"); got != 2 {
		t.Errorf("hoisted ckks.keyswitch = %d, want 2", got)
	}
	// One shared decomposeModUp plus two ModDown pairs: cheaper than two
	// plain rotations, and exactly the hoisting formula.
	want := uint64(beta*(level+1+kP) + 2*2*(kP+level+1))
	if got := transforms(rec.Snapshot().Counters); got != want {
		t.Errorf("hoisted ring.ntt + ring.intt = %d, want %d", got, want)
	}
	if want >= 2*plainNTT {
		t.Errorf("hoisting did not save transforms: %d vs 2×%d", want, plainNTT)
	}
}

// TestRecorderDetached: a nil recorder records nothing and changes no
// results.
func TestRecorderDetached(t *testing.T) {
	ev, rec, ct0, ct1 := obsTestEvaluator(t)
	ev.SetRecorder(nil)
	if ev.Recorder() != nil {
		t.Fatal("recorder not detached")
	}
	ev.Mul(ct0, ct1)
	if n := len(rec.Snapshot().Spans); n != 0 {
		t.Errorf("detached recorder captured %d spans", n)
	}
}
