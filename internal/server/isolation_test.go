package server

import (
	"bytes"
	"testing"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// TestTenantIsolationUnderChaos is the multi-tenant fault-containment
// contract: a key-vault bit flip injected into tenant A must surface as
// a typed error on A's own guarded request, while tenant B's results
// stay bit-identical throughout — and A recovers through the public
// vault-flush API, with no process restart.
func TestTenantIsolationUnderChaos(t *testing.T) {
	_, base := startServer(t, Config{Slots: 2, Queue: 4, Chaos: true})
	ctA := makeTenant(t, base, "victim", TenantConfig{LogN: 10, Levels: 2})
	ctB := makeTenant(t, base, "bystander", TenantConfig{LogN: 10, Levels: 2})
	c, ctx := NewClient(base), t.Context()

	rotate := func(tenant string, ct *ckks.Ciphertext, guard bool) ([]byte, error) {
		out, err := c.Rotate(ctx, tenant, ct, EvalArgs{By: 1, Guard: guard})
		if err != nil {
			return nil, err
		}
		return ctBytes(t, out), nil
	}

	// Baseline: B's rotation is deterministic — two runs, identical bytes.
	refB, err := rotate("bystander", ctB, false)
	if err != nil {
		t.Fatalf("bystander baseline rotate: %v", err)
	}
	if again, err := rotate("bystander", ctB, false); err != nil || !bytes.Equal(again, refB) {
		t.Fatalf("bystander rotation not deterministic (%v); cannot assert bit-identity", err)
	}
	// A works before the fault.
	if _, err := rotate("victim", ctA, true); err != nil {
		t.Fatalf("victim pre-fault guarded rotate: %v", err)
	}

	// Inject: bit flip in the next switching-key digit A materializes.
	fault := faultinject.Fault{Site: "ckks.keyvault.digitA", Kind: faultinject.KindBitFlip, Coeff: 7, Bit: 33}
	if err := c.Chaos(ctx, "victim", fault); err != nil {
		t.Fatalf("arm fault: %v", err)
	}
	// Flush so the guarded rotate must rematerialize — that expansion is
	// where the armed fault lands, corrupting the cached digit.
	if err := c.FlushVault(ctx, "victim"); err != nil {
		t.Fatalf("pre-fault flush: %v", err)
	}

	// A's guarded request reports the corruption as a typed 422.
	wantError(t, "victim under fault", errOf(rotate("victim", ctA, true)), 422, fherr.ErrPrecisionLoss)

	// B is untouched: same bytes as the pre-fault baseline.
	if got, err := rotate("bystander", ctB, false); err != nil {
		t.Errorf("bystander rotate during A's fault: %v", err)
	} else if !bytes.Equal(got, refB) {
		t.Error("bystander result changed while tenant A was corrupted — isolation broken")
	}

	// Recovery through the API: flush A's vault, fault is armed-once and
	// spent, so the rematerialized digit is clean.
	if err := c.FlushVault(ctx, "victim"); err != nil {
		t.Fatalf("recovery flush: %v", err)
	}
	if _, err := rotate("victim", ctA, true); err != nil {
		t.Errorf("victim after recovery flush: %v, want 200", err)
	}

	// The fired fault is visible in A's stats, and absent from B's.
	if st, err := c.Stats(ctx, "victim"); err != nil || len(st.Faults) == 0 {
		t.Errorf("victim stats (%v) show no fired faults", err)
	}
	if st, err := c.Stats(ctx, "bystander"); err != nil || len(st.Faults) != 0 {
		t.Errorf("bystander stats (%v) show %d fired faults, want 0", err, len(st.Faults))
	}
}
