package ckks

import (
	"fmt"

	"repro/internal/prng"
	"repro/internal/ring"
)

// Ciphertext is a CKKS ciphertext (c0, c1) in NTT form: Dec(ct) = c0 + c1·s.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Scale  float64
	Level  int

	// Sum is an optional integrity checksum over the ciphertext's header
	// and limb data (see ComputeChecksum). Zero means "unsealed": the
	// ciphertext carries no checksum and Validate skips the check. Seal
	// stamps it; any in-place mutation afterwards makes Validate fail with
	// fherr.ErrChecksum. Sum is deliberately not serialized and not
	// propagated by CopyNew — a copy starts unsealed, since most copies
	// are made precisely to be mutated.
	Sum uint64
}

// CopyNew returns a deep copy of the ciphertext. The copy is unsealed
// (Sum = 0) regardless of the receiver's integrity state.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.CopyNew(), C1: ct.C1.CopyNew(), Scale: ct.Scale, Level: ct.Level}
}

// Encryptor encrypts plaintexts under a public or secret key.
type Encryptor struct {
	params *Parameters
	pk     *PublicKey
	sk     *SecretKey
	src    *prng.Source
}

// NewEncryptor returns a public-key encryptor.
func NewEncryptor(params *Parameters, pk *PublicKey, src *prng.Source) *Encryptor {
	return &Encryptor{params: params, pk: pk, src: src}
}

// NewSecretKeyEncryptor returns a symmetric encryptor, which produces
// slightly less noisy ciphertexts (no u·e cross terms).
func NewSecretKeyEncryptor(params *Parameters, sk *SecretKey, src *prng.Source) *Encryptor {
	return &Encryptor{params: params, sk: sk, src: src}
}

// Encrypt encrypts a plaintext at the plaintext's level and scale.
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	p := e.params
	rQ := p.RingQ().AtLevel(pt.Level)
	ct := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: pt.Scale, Level: pt.Level}

	if e.sk != nil {
		// c1 uniform; c0 = -c1·s + m + e.
		rQ.SampleUniform(e.src, ct.C1)
		ct.C1.IsNTT = true
		noise := rQ.NewPoly()
		rQ.SampleGaussian(e.src, ring.DefaultSigma, noise)
		rQ.NTTPoly(noise)
		rQ.MulCoeffs(ct.C1, e.sk.Value.Q, ct.C0)
		rQ.Neg(ct.C0, ct.C0)
		rQ.Add(ct.C0, noise, ct.C0)
		rQ.Add(ct.C0, pt.Value, ct.C0)
		return ct
	}

	// Public-key path: (c0, c1) = (u·b + e0 + m, u·a + e1).
	u := rQ.NewPoly()
	rQ.SampleTernary(e.src, 2.0/3.0, u)
	rQ.NTTPoly(u)
	e0 := rQ.NewPoly()
	rQ.SampleGaussian(e.src, ring.DefaultSigma, e0)
	rQ.NTTPoly(e0)
	e1 := rQ.NewPoly()
	rQ.SampleGaussian(e.src, ring.DefaultSigma, e1)
	rQ.NTTPoly(e1)

	rQ.MulCoeffs(u, e.pk.B, ct.C0)
	rQ.Add(ct.C0, e0, ct.C0)
	rQ.Add(ct.C0, pt.Value, ct.C0)
	rQ.MulCoeffs(u, e.pk.A, ct.C1)
	rQ.Add(ct.C1, e1, ct.C1)
	return ct
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// DecryptToPlaintext returns the plaintext c0 + c1·s at the ciphertext's
// level, still in NTT form.
func (d *Decryptor) DecryptToPlaintext(ct *Ciphertext) *Plaintext {
	rQ := d.params.RingQ().AtLevel(ct.Level)
	pt := &Plaintext{Value: rQ.NewPoly(), Scale: ct.Scale, Level: ct.Level}
	rQ.MulCoeffs(ct.C1, d.sk.Value.Q, pt.Value)
	rQ.Add(pt.Value, ct.C0, pt.Value)
	return pt
}

// String implements fmt.Stringer with a compact summary.
func (ct *Ciphertext) String() string {
	return fmt.Sprintf("Ciphertext{level=%d scale=2^%.1f}", ct.Level, log2(ct.Scale))
}
