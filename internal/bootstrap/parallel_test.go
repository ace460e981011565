package bootstrap

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/ckks"
)

// TestBootstrapBitIdenticalAcrossWorkers runs the full pipeline (modRaise,
// CoeffToSlot, EvalMod, SlotToCoeff) under every worker count on one shared
// Bootstrapper and demands bit-identical refreshed ciphertexts. This is the
// end-to-end form of the limb-independence argument: every parallel axis the
// evaluator uses (limbs, digits, rotation steps, coefficient chunks) must
// regroup the arithmetic without changing a single output word.
func TestBootstrapBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)

	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, true)
	if err != nil {
		t.Fatal(err)
	}

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)

	n := params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))
	ct = btp.Evaluator().DropLevel(ct, 0)

	var golden *ckks.Ciphertext
	for i, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		btp.Evaluator().SetWorkers(w)
		out := btp.Bootstrap(ct)
		if i == 0 {
			golden = out
			continue
		}
		if out.Level != golden.Level || out.Scale != golden.Scale ||
			!out.C0.Equal(golden.C0) || !out.C1.Equal(golden.C1) {
			t.Errorf("bootstrap with %d workers is not bit-identical to serial", w)
		}
	}
	btp.Evaluator().SetWorkers(1)
}
