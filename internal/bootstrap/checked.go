package bootstrap

import (
	"context"

	"repro/internal/ckks"
	"repro/internal/fherr"
)

// This file is the bootstrapper's panic-free entry point plus its last
// line of defense: a decrypt-compare precision guard. Structural
// corruption (wrong limbs, toggled flags, bad scales) is caught by
// ckks.Parameters.Validate and the ciphertext checksums, but a corrupted
// *switching key* or an aggressive parameter choice produces a perfectly
// well-formed ciphertext encrypting garbage. The only way to catch that
// class without interactive protocols is to measure the refreshed
// message against the input — which needs the secret key, so the guard
// is an opt-in for canary and chaos deployments, not a production
// default.

// precisionGuard holds the decrypt-compare probe state.
type precisionGuard struct {
	dec     *ckks.Decryptor
	minBits float64
}

// ArmPrecisionGuard enables the decrypt-compare probe: BootstrapE
// decrypts its input and its output with sk, compares them slot-wise,
// and fails with fherr.ErrPrecisionLoss when the worst slot falls below
// minBits bits of precision. Pass a nil sk to disarm.
func (b *Bootstrapper) ArmPrecisionGuard(sk *ckks.SecretKey, minBits float64) {
	if sk == nil {
		b.guard = nil
		return
	}
	b.guard = &precisionGuard{dec: ckks.NewDecryptor(b.params, sk), minBits: minBits}
}

// BootstrapE is Bootstrap behind the evaluator's checked boundary
// (ckks.Evaluator.Do): the input is validated, the pipeline runs on a
// copy of the bootstrapper whose evaluator is bound to ctx — a deadline
// expiring mid-bootstrap aborts at the next op boundary or fan-out unit
// with fherr.ErrCanceled — any panic escaping it (including worker-pool
// panics) becomes a typed fherr error, and the result is sealed when the
// evaluator has integrity mode on. When the precision guard is armed the
// refreshed message is verified against the input first. On error the
// returned ciphertext is nil.
func (b *Bootstrapper) BootstrapE(ctx context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	var guardErr error
	out, err := b.ev.Do(ctx, "bootstrap.Bootstrap", func(ev *ckks.Evaluator) *ckks.Ciphertext {
		bound := *b
		bound.ev = ev
		if b.guard == nil {
			return bound.Bootstrap(ct)
		}
		in := ct
		if in.Level > 0 {
			in = ev.DropLevel(in, 0)
		}
		ref := b.enc.Decode(b.guard.dec.DecryptToPlaintext(in))
		out := bound.Bootstrap(ct)
		got := b.enc.Decode(b.guard.dec.DecryptToPlaintext(out))
		if stats := ckks.Precision(ref, got); stats.MinPrecisionBits < b.guard.minBits {
			guardErr = fherr.Errorf(fherr.ErrPrecisionLoss,
				"bootstrap: precision floor (got=%.2f bits worst slot, want>=%.2f)",
				stats.MinPrecisionBits, b.guard.minBits)
			return nil
		}
		return out
	}, ct)
	if guardErr != nil {
		return nil, guardErr
	}
	return out, err
}
