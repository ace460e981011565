package ckks

import (
	"fmt"

	"repro/internal/mathutil"
	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/rns"
)

// SecretKey is a ternary secret s, stored in NTT form over both the Q and
// P modulus chains so it can multiply raised polynomials directly.
type SecretKey struct {
	Value rns.PolyQP
}

// PublicKey is an encryption of zero (b, a) with b = -a·s + e, over the
// full Q chain in NTT form.
type PublicKey struct {
	B, A *ring.Poly
}

// KSKDigit is one digit of a switching key: a pair of raised (mod PQ)
// polynomials in NTT form.
type KSKDigit struct {
	B, A rns.PolyQP
}

// SwitchingKey re-encrypts x·w under the target secret: digit j holds
// (b_j, a_j) with b_j = -a_j·s + e_j + P·w·χ_j, where χ_j selects the Q
// limbs of digit j (Han–Ki hybrid key switching, Eq. 2 of the paper).
//
// When built compressed, each digit's a_j half is not stored: Seeds[j]
// regenerates it pseudorandomly. This is the paper's key-compression
// optimization (§3.2) — it halves switching-key storage and DRAM traffic.
type SwitchingKey struct {
	Digits []KSKDigit
	Seeds  [][prng.SeedSize]byte // non-nil iff compressed
}

// Compressed reports whether the key's uniform halves live only as seeds.
func (k *SwitchingKey) Compressed() bool { return k.Seeds != nil }

// RelinearizationKey switches s² back to s after a ciphertext product.
type RelinearizationKey struct {
	SwitchingKey
}

// GaloisKey switches σ_g(s) back to s after the automorphism X → X^g.
type GaloisKey struct {
	GaloisEl uint64
	SwitchingKey
}

// EvaluationKeySet bundles the keys an evaluator may need.
type EvaluationKeySet struct {
	Rlk    *RelinearizationKey
	Galois map[uint64]*GaloisKey
}

// KeyGenerator samples keys for a parameter set.
type KeyGenerator struct {
	params *Parameters
	src    *prng.Source
}

// NewKeyGenerator returns a generator drawing randomness from src (pass a
// seeded source for reproducible keys, or prng.NewRandomSource()).
func NewKeyGenerator(params *Parameters, src *prng.Source) *KeyGenerator {
	return &KeyGenerator{params: params, src: src}
}

// GenSecretKey samples a uniform-ternary secret (density 2/3).
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	p := kg.params
	small := p.RingQ().NewPoly()
	p.RingQ().SampleTernary(kg.src, 2.0/3.0, small)

	sk := &SecretKey{Value: rns.PolyQP{Q: small.CopyNew(), P: p.RingP().NewPoly()}}
	// Mirror the signed coefficients into the P limbs.
	for j := 0; j < p.N(); j++ {
		v := small.Coeffs[0][j]
		var signed int64
		switch v {
		case 0, 1:
			signed = int64(v)
		default:
			signed = -1
		}
		for i, s := range p.RingP().SubRings {
			if signed >= 0 {
				sk.Value.P.Coeffs[i][j] = uint64(signed)
			} else {
				sk.Value.P.Coeffs[i][j] = s.Q - 1
			}
		}
	}
	p.RingQ().NTTPoly(sk.Value.Q)
	p.RingP().NTTPoly(sk.Value.P)
	return sk
}

// GenPublicKey returns (b, a) with b = -a·s + e over Q, NTT form.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	p := kg.params
	rQ := p.RingQ()
	a := rQ.NewPoly()
	rQ.SampleUniform(kg.src, a)
	a.IsNTT = true

	e := rQ.NewPoly()
	rQ.SampleGaussian(kg.src, ring.DefaultSigma, e)
	rQ.NTTPoly(e)

	b := rQ.NewPoly()
	rQ.MulCoeffs(a, sk.Value.Q, b)
	rQ.Neg(b, b)
	rQ.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds a switching key whose digits encrypt P·w·χ_j
// under sk, where w is given in NTT form over the full Q chain.
// If compress is true the uniform halves are derived from per-digit seeds
// that are retained in the key (the key-compression optimization).
func (kg *KeyGenerator) genSwitchingKey(w *ring.Poly, sk *SecretKey, compress bool) SwitchingKey {
	p := kg.params
	rQ, rP := p.RingQ(), p.RingP()
	conv := p.Converter()
	level := p.MaxLevel()
	alpha := p.Alpha()
	dnum := p.Dnum()

	swk := SwitchingKey{Digits: make([]KSKDigit, dnum)}
	if compress {
		swk.Seeds = make([][prng.SeedSize]byte, dnum)
	}
	for j := 0; j < dnum; j++ {
		var a rns.PolyQP
		if compress {
			seed := kg.src.DeriveSeed()
			swk.Seeds[j] = seed
			a = expandKSKRandom(p, seed)
		} else {
			a = conv.NewPolyQP(level)
			rQ.SampleUniform(kg.src, a.Q)
			rP.SampleUniform(kg.src, a.P)
			a.Q.IsNTT, a.P.IsNTT = true, true
		}

		e := conv.NewPolyQP(level)
		small := rQ.NewPoly()
		rQ.SampleGaussian(kg.src, ring.DefaultSigma, small)
		mirrorSmallIntoP(p, small, e)
		rQ.NTTPoly(e.Q)
		rP.NTTPoly(e.P)

		// b = -a·s + e  (over both Q and P limbs)
		b := conv.NewPolyQP(level)
		rQ.MulCoeffs(a.Q, sk.Value.Q, b.Q)
		rQ.Neg(b.Q, b.Q)
		rQ.Add(b.Q, e.Q, b.Q)
		rP.MulCoeffs(a.P, sk.Value.P, b.P)
		rP.Neg(b.P, b.P)
		rP.Add(b.P, e.P, b.P)

		// + P·w on the digit's own Q limbs.
		start := j * alpha
		end := min(start+alpha, level+1)
		for i := start; i < end; i++ {
			s := rQ.SubRings[i]
			pMod, pShoup := conv.PModQ(i)
			bi, wi := b.Q.Coeffs[i], w.Coeffs[i]
			for c := 0; c < p.N(); c++ {
				bi[c] = mathutil.AddMod(bi[c], mathutil.MulModShoup(wi[c], pMod, pShoup, s.Q), s.Q)
			}
		}
		swk.Digits[j] = KSKDigit{B: b, A: a}
	}
	return swk
}

// expandKSKRandom regenerates the uniform half of a switching-key digit
// from its seed: the receiving side of key compression.
func expandKSKRandom(p *Parameters, seed [prng.SeedSize]byte) rns.PolyQP {
	a := p.Converter().NewPolyQP(p.MaxLevel())
	expandKSKRandomInto(p, prng.NewSource(seed), a)
	return a
}

// expandKSKRandomInto is expandKSKRandom into a caller-owned full-chain
// buffer, drawing from a source already seeded with the digit's seed; it
// overwrites every word of a.
func expandKSKRandomInto(p *Parameters, src *prng.Source, a rns.PolyQP) {
	p.RingQ().SampleUniform(src, a.Q)
	p.RingP().SampleUniform(src, a.P)
	a.Q.IsNTT, a.P.IsNTT = true, true
}

// mirrorSmallIntoP copies a small (coefficient-form, signed-ternary-or-
// Gaussian) polynomial sampled over Q into a PolyQP, reducing the signed
// value into every P limb as well.
func mirrorSmallIntoP(p *Parameters, small *ring.Poly, out rns.PolyQP) {
	small.Copy(out.Q)
	q0 := p.RingQ().Moduli[0]
	half := q0 >> 1
	for j := 0; j < p.N(); j++ {
		v := small.Coeffs[0][j]
		var signed int64
		if v > half {
			signed = -int64(q0 - v)
		} else {
			signed = int64(v)
		}
		for i, s := range p.RingP().SubRings {
			if signed >= 0 {
				out.P.Coeffs[i][j] = uint64(signed) % s.Q
			} else {
				out.P.Coeffs[i][j] = s.Q - uint64(-signed)%s.Q
			}
		}
	}
	out.P.IsNTT = false
}

// GenRelinearizationKey returns the key switching s² → s.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey, compress bool) *RelinearizationKey {
	rQ := kg.params.RingQ()
	s2 := rQ.NewPoly()
	rQ.MulCoeffs(sk.Value.Q, sk.Value.Q, s2)
	s2.IsNTT = true
	return &RelinearizationKey{SwitchingKey: kg.genSwitchingKey(s2, sk, compress)}
}

// GenGaloisKey returns the key switching σ_g(s) → s for Galois element g.
func (kg *KeyGenerator) GenGaloisKey(g uint64, sk *SecretKey, compress bool) *GaloisKey {
	rQ := kg.params.RingQ()
	sg := rQ.NewPoly()
	rQ.AutomorphismNTT(sk.Value.Q, g, sg)
	return &GaloisKey{GaloisEl: g, SwitchingKey: kg.genSwitchingKey(sg, sk, compress)}
}

// GenRotationKeys returns Galois keys for each requested rotation step.
func (kg *KeyGenerator) GenRotationKeys(steps []int, sk *SecretKey, compress bool) map[uint64]*GaloisKey {
	out := make(map[uint64]*GaloisKey, len(steps))
	for _, k := range steps {
		g := kg.params.RingQ().GaloisElement(k)
		if _, ok := out[g]; !ok {
			out[g] = kg.GenGaloisKey(g, sk, compress)
		}
	}
	return out
}

// GenConjugationKey returns the Galois key for complex conjugation.
func (kg *KeyGenerator) GenConjugationKey(sk *SecretKey, compress bool) *GaloisKey {
	return kg.GenGaloisKey(kg.params.RingQ().GaloisElementConjugate(), sk, compress)
}

// GenGaloisKeys generates the Galois key set for a rotation fan-out
// (lintrans/innersum/bootstrap rotation sets) seed-compressed by default,
// with the uniform halves dropped to seed-only form: generation needs
// each a_j to compute b_j, but retaining them would defeat the point of
// compression, so the expanded halves are released and the evaluator's
// key vault rematerializes digits on demand within its byte budget.
func (kg *KeyGenerator) GenGaloisKeys(steps []int, sk *SecretKey) map[uint64]*GaloisKey {
	out := kg.GenRotationKeys(steps, sk, true)
	for _, gk := range out {
		gk.DropExpanded()
	}
	return out
}

// KeySizeBytes returns the exact on-wire size of a switching key — the
// byte count SwitchingKey.WriteTo produces, headers included. A
// compressed key ships one 32-byte seed per digit instead of the digit's
// uniform polynomial, halving the size (§3.2); whether the expanded
// halves happen to be materialized in memory right now does not change
// the answer, because WriteTo never ships them. For the in-memory
// footprint, see KeyResidentBytes.
func (p *Parameters) KeySizeBytes(swk *SwitchingKey) int {
	const swkHeader, polyHeader = 8, 12
	polyQ := polyHeader + (p.MaxLevel()+1)*p.N()*8
	polyP := polyHeader + p.Alpha()*p.N()*8
	size := swkHeader
	for range swk.Digits {
		size += polyQ + polyP // b half
		if swk.Compressed() {
			size += prng.SeedSize
		} else {
			size += polyQ + polyP // a half
		}
	}
	return size
}

// KeyResidentBytes returns the key's current in-memory footprint: the
// b halves (always materialized), each a half only if it is materialized
// in the key right now, and the seeds. Digits held by an evaluator's key
// vault are charged to the vault's resident gauge, not to the key.
func (p *Parameters) KeyResidentBytes(swk *SwitchingKey) int64 {
	var size int64
	for j := range swk.Digits {
		d := &swk.Digits[j]
		size += polyQPBytes(d.B)
		if d.A.Q != nil {
			size += polyQPBytes(d.A)
		}
	}
	size += int64(len(swk.Seeds)) * prng.SeedSize
	return size
}

// checkKeyLevels validates that a switching key matches the parameters.
func (p *Parameters) checkKeyLevels(swk *SwitchingKey) error {
	if len(swk.Digits) != p.Dnum() {
		return fmt.Errorf("ckks: switching key digits (got=%d, want=%d)", len(swk.Digits), p.Dnum())
	}
	return nil
}

// GenKeySwitchingKey returns the key re-encrypting ciphertexts decryptable
// under skFrom into ciphertexts decryptable under skTo — the generic
// KeySwitch of §2.2 ("takes in a switching key ksk_{s→s'} and a ciphertext
// decryptable under s; the output is decryptable under s'"). Rotation and
// relinearization keys are the two specializations this generalizes.
func (kg *KeyGenerator) GenKeySwitchingKey(skFrom, skTo *SecretKey, compress bool) *SwitchingKey {
	swk := kg.genSwitchingKey(skFrom.Value.Q, skTo, compress)
	return &swk
}
