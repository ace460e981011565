// Package prng provides a deterministic, seed-expandable pseudo-random
// number generator used throughout the library: for sampling uniform
// polynomial coefficients, for the ternary and Gaussian error samplers, and
// — crucially for the paper's key-compression optimization (§3.2) — for
// regenerating the uniformly random half of a switching key from a 32-byte
// seed instead of storing or transferring the full ring element.
package prng

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	mrand "math/rand/v2"
)

// SeedSize is the byte length of a Source seed.
const SeedSize = 32

// Source is a deterministic stream of uniform 64-bit words expanded from a
// fixed-size seed. Two Sources constructed from the same seed produce the
// same stream, which is what lets a switching key's first polynomial be
// shipped as a seed (key compression) and re-expanded on the compute side.
type Source struct {
	rng mrand.ChaCha8
}

// NewSource returns a Source expanding the given 32-byte seed.
func NewSource(seed [SeedSize]byte) *Source {
	s := new(Source)
	s.Reseed(seed)
	return s
}

// Reseed restarts the stream from seed, exactly as a fresh NewSource(seed)
// would produce it. It lets a long-lived owner (the key vault, which
// re-expands a digit on every miss) keep one Source instead of allocating
// one per expansion; the zero Source is ready to be reseeded.
func (s *Source) Reseed(seed [SeedSize]byte) { s.rng.Seed(seed) }

// NewRandomSource returns a Source with a fresh seed drawn from the
// operating system CSPRNG, along with the seed itself so the caller can
// store or transmit it.
func NewRandomSource() (*Source, [SeedSize]byte) {
	var seed [SeedSize]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// The OS entropy source failing is unrecoverable for key generation.
		panic("prng: system entropy unavailable: " + err.Error())
	}
	return NewSource(seed), seed
}

// Uint64 returns the next uniform 64-bit word of the stream.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Uint64n returns a uniform value in [0, n) using rejection sampling so the
// distribution is exactly uniform. n must be nonzero.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two: mask
		return s.rng.Uint64() & (n - 1)
	}
	// Rejection sampling over the largest multiple of n below 2^64.
	limit := -n % n // == 2^64 mod n
	for {
		v := s.rng.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.rng.Uint64()>>11) / (1 << 53)
}

// Fill fills p with pseudo-random bytes.
func (s *Source) Fill(p []byte) {
	var buf [8]byte
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, s.rng.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		binary.LittleEndian.PutUint64(buf[:], s.rng.Uint64())
		copy(p, buf[:])
	}
}

// UniformSlice fills out with uniform values modulo q: word for word the
// stream of per-element Uint64n(q) calls — seeds on the wire regenerate
// the same keys — with the rejection limit hoisted out of the loop and the
// hardware division of v % q replaced by a multiply-high against the
// precomputed m = ⌊2^64/q⌋. The quotient estimate ⌊v·m/2^64⌋ is ⌊v/q⌋ or
// one less, so the remainder lands in [0, 2q) and one conditional
// subtraction makes it canonical.
func (s *Source) UniformSlice(out []uint64, q uint64) {
	if q == 0 {
		panic("prng: UniformSlice(q=0)")
	}
	if q&(q-1) == 0 {
		for i := range out {
			out[i] = s.rng.Uint64() & (q - 1)
		}
		return
	}
	limit := -q % q     // 2^64 mod q: draws below it are rejected
	m := ^uint64(0) / q // = ⌊2^64/q⌋, q not being a power of two
	for i := range out {
		v := s.rng.Uint64()
		for v < limit {
			v = s.rng.Uint64()
		}
		qhat, _ := bits.Mul64(v, m)
		r := v - qhat*q
		if r >= q {
			r -= q
		}
		out[i] = r
	}
}

// DeriveSeed deterministically derives a sub-seed from the stream; used to
// give each switching-key digit its own independent expansion seed while
// the whole key set is still reproducible from one master seed.
func (s *Source) DeriveSeed() [SeedSize]byte {
	var seed [SeedSize]byte
	s.Fill(seed[:])
	return seed
}
