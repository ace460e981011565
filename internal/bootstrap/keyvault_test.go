package bootstrap

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// vaultBootstrapper builds a compressed-key bootstrapper from the shared
// deterministic seed, its evaluator configured by opts. Each call
// re-derives the identical secret and key set, so two bootstrappers can
// be compared digit-for-digit.
func vaultBootstrapper(t *testing.T, opts ...ckks.EvaluatorOption) (*Bootstrapper, *ckks.Parameters, *ckks.SecretKey) {
	t.Helper()
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return btp, params, sk
}

// expandAllKeys materializes every key of the bootstrapper's evaluator in
// place — the fully-resident baseline the vault competes against.
func expandAllKeys(params *ckks.Parameters, ev *ckks.Evaluator) int64 {
	keys := ev.Keys()
	keys.Rlk.ExpandAll(params)
	for _, gk := range keys.Galois {
		gk.ExpandAll(params)
	}
	return keyStructBytes(params, keys)
}

// keyStructBytes sums what the key structs themselves hold right now: b
// halves and seeds, plus any a halves materialized in place. Vault-held
// a halves are not included.
func keyStructBytes(params *ckks.Parameters, keys *ckks.EvaluationKeySet) int64 {
	total := params.KeyResidentBytes(&keys.Rlk.SwitchingKey)
	for _, gk := range keys.Galois {
		total += params.KeyResidentBytes(&gk.SwitchingKey)
	}
	return total
}

// TestBootstrapKeyBudgetBitIdentical is the PR's golden contract at full
// pipeline scale: a bootstrap whose key vault is budgeted well under 50%
// of the fully-resident key bytes must produce a ciphertext bit-identical
// to the same bootstrap with every key eagerly materialized — and the
// constrained budget must actually buy memory: fully-expanded key bytes
// over (seed-only key bytes + the vault's peak resident bytes) >= 1.5x.
//
// The contract under test is vault-vs-materialized for one fixed key set:
// the budget is fixed when the evaluator is built, so the two runs use two
// bootstrappers built from one seed, which hold the same keys — keygen
// walks the sorted rotation-step set; TestBootstrapperDeterministic pins
// that.
func TestBootstrapKeyBudgetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	full, params, sk := vaultBootstrapper(t)
	// Baseline: every key expanded up front; digit resolution never
	// touches the vault.
	fullResident := expandAllKeys(params, full.Evaluator())

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, bootSource())
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, 0)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))
	ct = full.Evaluator().DropLevel(ct, 0)

	ref := full.Bootstrap(ct)

	// Vault run: the same keys in seed-only form, budget at 1/8 of the
	// fully-resident bytes — far below the 50% acceptance bound.
	budget := fullResident / 8
	btp, _, _ := vaultBootstrapper(t, ckks.WithKeyBudget(budget))
	keys := btp.Evaluator().Keys()
	out := btp.Bootstrap(ct)

	if !out.C0.Equal(ref.C0) || !out.C1.Equal(ref.C1) {
		t.Fatal("budgeted bootstrap differs from fully-materialized baseline")
	}
	st := btp.Evaluator().KeyVaultStats()
	if st.Expansions == 0 || st.Evictions == 0 {
		t.Fatalf("budget did not exercise the vault: %+v", st)
	}
	// The admit-then-evict overshoot is bounded by one digit (plus any
	// fan-out pins, which at this scale fit well under the slack).
	digit := int64(params.MaxLevel()+1+params.Alpha()) * int64(params.N()) * 8
	if st.PeakResident > budget+dnumOf(params)*digit {
		t.Errorf("peak resident %d bytes, want <= budget %d + pin slack", st.PeakResident, budget)
	}
	seedOnly := keyStructBytes(params, keys)
	reduction := float64(fullResident) / float64(seedOnly+st.PeakResident)
	if reduction < 1.5 {
		t.Errorf("resident key bytes %d expanded vs %d seed-only + %d vault peak: %.2fx reduction, want >= 1.5x",
			fullResident, seedOnly, st.PeakResident, reduction)
	}
	t.Logf("full keys %d bytes, seed-only %d; vault budget %d, peak %d (%.2fx resident reduction), %d expansions, %d evictions, %d hits",
		fullResident, seedOnly, budget, st.PeakResident, reduction, st.Expansions, st.Evictions, st.Hits)
}

func dnumOf(params *ckks.Parameters) int64 { return int64(params.Dnum()) }

// TestBootstrapperDeterministic: two bootstrappers built from one seed
// hold byte-identical Galois key sets — key generation consumes its PRNG
// stream in sorted rotation-step order, never in map order — and refresh
// one ciphertext to the same bits.
func TestBootstrapperDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	a, params, sk := vaultBootstrapper(t)
	b, _, _ := vaultBootstrapper(t)
	ka, kb := a.Evaluator().Keys().Galois, b.Evaluator().Keys().Galois
	if len(ka) != len(kb) {
		t.Fatalf("%d vs %d Galois keys", len(ka), len(kb))
	}
	if _, dead := ka[1]; dead {
		t.Error("a Galois key for the identity (g = 1) was generated")
	}
	for g, gk := range ka {
		other, ok := kb[g]
		if !ok {
			t.Fatalf("Galois element %d keyed by one bootstrapper only", g)
		}
		var wa, wb bytes.Buffer
		if _, err := gk.WriteTo(&wa); err != nil {
			t.Fatal(err)
		}
		if _, err := other.WriteTo(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatalf("Galois key %d differs between two constructions on one seed", g)
		}
	}

	enc := ckks.NewEncoder(params)
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := ckks.NewSecretKeyEncryptor(params, sk, bootSource()).Encrypt(enc.Encode(msg))
	ct = a.Evaluator().DropLevel(ct, 0)
	outA, outB := a.Bootstrap(ct), b.Bootstrap(ct)
	if !outA.C0.Equal(outB.C0) || !outA.C1.Equal(outB.C1) {
		t.Error("two bootstrappers on one seed refresh one ciphertext differently")
	}
}

// TestBootstrapVaultFaultDetectedByPrecisionGuard closes the chaos loop
// at the pipeline level: a bit flip injected into a vault-materialized
// digit must be caught by the existing decrypt-compare precision guard —
// key corruption is invisible to every structural and checksum check, so
// the guard is the detection layer of record.
func TestBootstrapVaultFaultDetectedByPrecisionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	btp, params, sk := vaultBootstrapper(t)
	fi := faultinject.New()
	btp.Evaluator().SetFaultInjector(fi)
	btp.ArmPrecisionGuard(sk, 8)

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, bootSource())
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, 0)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))
	ct = btp.Evaluator().DropLevel(ct, 0)

	fi.Arm(faultinject.Fault{Site: "ckks.keyvault.digitA", Kind: faultinject.KindBitFlip, Limb: 0, Coeff: 11, Bit: 29})
	_, err := btp.BootstrapE(context.Background(), ct)
	if err == nil {
		t.Fatal("corrupted vault digit escaped the precision guard")
	}
	if !errors.Is(err, fherr.ErrPrecisionLoss) {
		t.Fatalf("detected as %v, want ErrPrecisionLoss", err)
	}
	if len(fi.Events()) == 0 {
		t.Fatal("fault never fired")
	}

	// Recovery: flush the poisoned cache and the same bootstrap succeeds.
	btp.Evaluator().FlushKeyVault()
	fi.Reset()
	if _, err := btp.BootstrapE(context.Background(), ct); err != nil {
		t.Fatalf("bootstrapper unusable after vault flush: %v", err)
	}
}
