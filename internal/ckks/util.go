package ckks

import (
	"repro/internal/ring"
)

// iMonomial returns the NTT image of the monomial X^{N/2} over the full Q
// chain, whose canonical-embedding image is the constant vector
// (i, i, …, i): every evaluation point is ζ^{5^j·N/2} = i^{5^j mod 4} = i.
// Multiplying by it rotates nothing, costs no level and no scale — the
// cheapest way to multiply every slot by the imaginary unit. Each limb's
// NTT is independent of the others, so its first ℓ+1 limbs are the image
// at level ℓ.
func iMonomial(rQ *ring.Ring) *ring.Poly {
	p := rQ.NewPoly()
	for i := range rQ.SubRings {
		p.Coeffs[i][rQ.N/2] = 1
	}
	rQ.NTTPoly(p)
	return p
}

// MulByI multiplies every slot by the imaginary unit i, exactly and for
// free (no level, no scale change): a pointwise product with NTT(X^{N/2}),
// read through a level view of the parameter set's one image — built once,
// on first use, then only read, so concurrent calls share no mutable state.
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	mono := &ring.Poly{Coeffs: ev.params.iMono().Coeffs[:ct.Level+1], IsNTT: true}
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: ct.Scale, Level: ct.Level}
	rQ.MulCoeffs(ct.C0, mono, out.C0)
	rQ.MulCoeffs(ct.C1, mono, out.C1)
	return out
}

// MulByMinusI multiplies every slot by -i.
func (ev *Evaluator) MulByMinusI(ct *Ciphertext) *Ciphertext {
	return ev.Neg(ev.MulByI(ct))
}

// GenSecretKeySparse samples a ternary secret with exactly h nonzero
// coefficients (Hamming weight h). Bootstrapping uses sparse secrets so
// the modular-reduction range K = ‖k‖∞ in Δ·m + q·k stays small enough
// for a low-degree sine approximation.
func (kg *KeyGenerator) GenSecretKeySparse(h int) *SecretKey {
	p := kg.params
	n := p.N()
	if h <= 0 || h > n {
		panic("ckks: sparse secret weight out of range")
	}
	signs := make([]int64, n)
	placed := 0
	for placed < h {
		j := int(kg.src.Uint64n(uint64(n)))
		if signs[j] != 0 {
			continue
		}
		if kg.src.Uint64n(2) == 0 {
			signs[j] = 1
		} else {
			signs[j] = -1
		}
		placed++
	}
	small := p.RingQ().NewPoly()
	skP := p.RingP().NewPoly()
	for j, v := range signs {
		for i, s := range p.RingQ().SubRings {
			if v >= 0 {
				small.Coeffs[i][j] = uint64(v)
			} else {
				small.Coeffs[i][j] = s.Q - 1
			}
		}
		for i, s := range p.RingP().SubRings {
			if v >= 0 {
				skP.Coeffs[i][j] = uint64(v)
			} else {
				skP.Coeffs[i][j] = s.Q - 1
			}
		}
	}
	out := &SecretKey{}
	out.Value.Q = small
	out.Value.P = skP
	p.RingQ().NTTPoly(out.Value.Q)
	p.RingP().NTTPoly(out.Value.P)
	return out
}
