package ckks

import (
	"math"
	mathbits "math/bits"

	"repro/internal/fherr"
	"repro/internal/ring"
)

// This file is the single invariant checker behind the evaluator's
// checked boundary: Do (and bootstrap.BootstrapE through it) funnels its
// operands through Parameters.Validate before touching the hot kernels, so a
// corrupted or mis-assembled ciphertext surfaces as a typed error at the
// API boundary instead of an index panic (or worse, silent garbage) deep
// inside a kernel.

// chkMult is the 64-bit golden-ratio constant; one multiply by it plus a
// rotate diffuses a xored-in word across the whole state, which is all a
// corruption *detector* (not an adversarial MAC) needs.
const chkMult = 0x9E3779B97F4A7C15

func chkFold(h, w uint64) uint64 {
	return mathbits.RotateLeft64((h^w)*chkMult, 29)
}

// ComputeChecksum folds the ciphertext's header (level, scale bits, NTT
// flags, limb counts) and every limb word into a 64-bit digest. The
// result is never 0 (0 is reserved to mean "unsealed"); a zero fold is
// normalized to 1.
func (ct *Ciphertext) ComputeChecksum() uint64 {
	h := chkFold(uint64(ct.Level)+1, math.Float64bits(ct.Scale))
	for _, half := range []*ring.Poly{ct.C0, ct.C1} {
		if half == nil {
			h = chkFold(h, 0)
			continue
		}
		flag := uint64(0)
		if half.IsNTT {
			flag = 1
		}
		h = chkFold(h, flag)
		h = chkFold(h, uint64(len(half.Coeffs)))
		for i := range half.Coeffs {
			for _, w := range half.Coeffs[i] {
				h = chkFold(h, w)
			}
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Seal stamps the ciphertext's current checksum into Sum, arming the
// integrity check in Validate. Any in-place mutation after Seal (a bit
// flip, a truncated limb slice, a toggled NTT flag, a perturbed scale)
// makes Validate fail with fherr.ErrChecksum.
func (ct *Ciphertext) Seal() { ct.Sum = ct.ComputeChecksum() }

// validateHalf checks one ciphertext (or plaintext) polynomial against
// the parameter set at the given level.
func (p *Parameters) validateHalf(name string, half *ring.Poly, level int) error {
	if half == nil {
		return fherr.Errorf(fherr.ErrDegree, "ckks: validate %s (got=nil, want=polynomial)", name)
	}
	if len(half.Coeffs) != level+1 {
		return fherr.Errorf(fherr.ErrLevelMismatch,
			"ckks: validate %s limbs (got=%d, want=%d for level %d)", name, len(half.Coeffs), level+1, level)
	}
	for i := range half.Coeffs {
		if len(half.Coeffs[i]) != p.N() {
			return fherr.Errorf(fherr.ErrLimbLength,
				"ckks: validate %s limb %d length (got=%d, want=%d)", name, i, len(half.Coeffs[i]), p.N())
		}
	}
	if !half.IsNTT {
		return fherr.Errorf(fherr.ErrNTTDomain,
			"ckks: validate %s domain (got=coefficient form, want=NTT)", name)
	}
	return nil
}

func validateScale(s float64) error {
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return fherr.Errorf(fherr.ErrScaleMismatch,
			"ckks: validate scale (got=%v, want=finite positive)", s)
	}
	return nil
}

// Validate checks every structural invariant a well-formed ciphertext
// satisfies under this parameter set: both halves present, level within
// the modulus chain, exactly level+1 limbs of exactly N words each, NTT
// form, and a finite positive scale. If the ciphertext is sealed
// (Sum != 0) the checksum is recomputed and compared, catching payload
// corruption the structural checks cannot see. Each failure is a typed
// fherr sentinel, so callers can dispatch with errors.Is.
func (p *Parameters) Validate(ct *Ciphertext) error {
	if ct == nil {
		return fherr.Errorf(fherr.ErrDegree, "ckks: validate ciphertext (got=nil, want=ciphertext)")
	}
	if ct.Level < 0 || ct.Level > p.MaxLevel() {
		return fherr.Errorf(fherr.ErrLevelMismatch,
			"ckks: validate level (got=%d, want within [0,%d])", ct.Level, p.MaxLevel())
	}
	if err := p.validateHalf("c0", ct.C0, ct.Level); err != nil {
		return err
	}
	if err := p.validateHalf("c1", ct.C1, ct.Level); err != nil {
		return err
	}
	if err := validateScale(ct.Scale); err != nil {
		return err
	}
	if ct.Sum != 0 {
		if got := ct.ComputeChecksum(); got != ct.Sum {
			return fherr.Errorf(fherr.ErrChecksum,
				"ckks: validate checksum (got=%#x, want=%#x)", got, ct.Sum)
		}
	}
	return nil
}

// ValidatePlaintext checks the structural invariants of a plaintext:
// value present, level within range with matching limb shape, NTT form,
// finite positive scale.
func (p *Parameters) ValidatePlaintext(pt *Plaintext) error {
	if pt == nil {
		return fherr.Errorf(fherr.ErrDegree, "ckks: validate plaintext (got=nil, want=plaintext)")
	}
	if pt.Level < 0 || pt.Level > p.MaxLevel() {
		return fherr.Errorf(fherr.ErrLevelMismatch,
			"ckks: validate plaintext level (got=%d, want within [0,%d])", pt.Level, p.MaxLevel())
	}
	if err := p.validateHalf("plaintext value", pt.Value, pt.Level); err != nil {
		return err
	}
	return validateScale(pt.Scale)
}
