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

	"repro/internal/simd"
)

// SeedSize is the byte length of a Source seed.
const SeedSize = 32

// Source is a deterministic stream of uniform 64-bit words expanded from a
// fixed-size seed. Two Sources constructed from the same seed produce the
// same stream, which is what lets a switching key's first polynomial be
// shipped as a seed (key compression) and re-expanded on the compute side.
//
// The stream is chacha8rand (C2SP), word for word the one
// math/rand/v2.ChaCha8 emits for the same seed: every compressed key
// ever written regenerates from it. Source runs the state machine
// itself so one call of the epoch kernel (epoch.go) makes a whole
// epoch: the stream is a sequence of epochs, each 16 ChaCha8 blocks over
// one 4-word key, of which the first epochWords words are output and the
// last four the next epoch's key.
type Source struct {
	buf  [epochWords + 4]uint64
	seed [4]uint64 // the current epoch's key, copied out of the buf the epoch overwrites
	// left counts the unread output words of buf; at 0 the next read
	// expands the key in buf[epochWords:] first, so a Source reseeded
	// and never read costs no epoch, and the zero Source is the stream
	// of the all-zero seed.
	left uint
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
func (s *Source) Reseed(seed [SeedSize]byte) {
	for i := range 4 {
		s.buf[epochWords+i] = binary.LittleEndian.Uint64(seed[8*i:])
	}
	s.left = 0
}

// refill runs the next epoch: the key is the last four words of the one
// before (or the seed Reseed put there). Kept out of line so Uint64
// inlines.
//
//go:noinline
func (s *Source) refill() {
	s.seed = [4]uint64(s.buf[epochWords:])
	epoch(&s.seed, &s.buf)
	s.left = epochWords
}

// words returns the unread output words of the current epoch, running
// the next epoch first if none are left. The caller reads a prefix of
// them and subtracts its length from s.left.
func (s *Source) words() []uint64 {
	if s.left == 0 {
		s.refill()
	}
	return s.buf[epochWords-s.left : epochWords]
}

// Checkpoint is a position in a stream: the key of the epoch that holds
// the next word and how many of that epoch's words are already read —
// 40 bytes. Resume returns any Source to it, so a consumer can start
// reading a long stream in the middle (one limb of a key digit) without
// generating what comes before.
type Checkpoint struct {
	key  [4]uint64
	used uint64
}

// Checkpoint returns the stream's current position.
func (s *Source) Checkpoint() Checkpoint {
	if s.left == 0 { // the next word opens the epoch keyed by buf's tail
		return Checkpoint{key: [4]uint64(s.buf[epochWords:])}
	}
	return Checkpoint{key: s.seed, used: uint64(epochWords - s.left)}
}

// Resume moves the stream to c: the words read next are the ones the
// Source that returned c read after returning it. Mid-epoch, Resume
// regenerates the epoch once.
func (s *Source) Resume(c Checkpoint) {
	copy(s.buf[epochWords:], c.key[:])
	s.left = 0
	if c.used > 0 {
		s.refill()
		s.left = epochWords - uint(c.used)
	}
}

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
func (s *Source) Uint64() uint64 {
	if s.left == 0 {
		s.refill()
	}
	s.left--
	return s.buf[(epochWords-1-s.left)%128] // % len(buf): no bounds check
}

// Uint64n returns a uniform value in [0, n) using rejection sampling so the
// distribution is exactly uniform. n must be nonzero.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two: mask
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling over the largest multiple of n below 2^64.
	limit := -n % n // == 2^64 mod n
	for {
		v := s.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Fill fills p with pseudo-random bytes: each eight bytes one word of the
// stream, little-endian; a short tail takes the first bytes of one more.
func (s *Source) Fill(p []byte) {
	for len(p) >= 8 {
		run := s.words()
		n := min(len(run), len(p)/8)
		for _, v := range run[:n] {
			binary.LittleEndian.PutUint64(p, v)
			p = p[8:]
		}
		s.left -= uint(n)
	}
	if len(p) > 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], s.Uint64())
		copy(p, buf[:])
	}
}

// UniformSlice fills out with uniform values modulo q: word for word the
// stream of per-element Uint64n(q) calls — seeds on the wire regenerate
// the same keys — with the rejection limit hoisted out of the loop, and
// the stream read from the epoch buffer a run of words at a time, not
// one call per word. Each run is reduced on one of two bodies, both
// division-free and writing the same words. The scalar body replaces the
// hardware division of v % q by a multiply-high against the precomputed
// m = ⌊2^64/q⌋: the quotient estimate ⌊v·m/2^64⌋ is ⌊v/q⌋ or one less,
// so the remainder lands in [0, 2q) and one conditional subtraction
// makes it canonical. Where vectorUniform holds, the AVX-512 kernel
// reduces each run eight words at a time with a float quotient estimate,
// and the scalar body the last len(run) mod 8 words (4 of a whole epoch).
func (s *Source) UniformSlice(out []uint64, q uint64) {
	if q == 0 {
		panic("prng: UniformSlice(q=0)")
	}
	if q&(q-1) == 0 {
		for len(out) > 0 {
			run := s.words()
			n := min(len(run), len(out))
			for i, v := range run[:n] {
				out[i] = v & (q - 1)
			}
			s.left -= uint(n)
			out = out[n:]
		}
		return
	}
	limit := -q % q     // 2^64 mod q: draws below it are rejected
	m := ^uint64(0) / q // = ⌊2^64/q⌋, q not being a power of two
	vector, qinv := vectorUniform(q), 1/float64(q)
	for len(out) > 0 {
		// Each word of the run fills at most one element of out.
		run := s.words()
		run = run[:min(len(run), len(out))]
		s.left -= uint(len(run))
		i := 0
		if vector {
			k := len(run) &^ 7
			i = uniformAVX512(out, run[:k], q, limit, qinv)
			run = run[k:]
		}
		for _, v := range run {
			if v < limit {
				continue
			}
			qhat, _ := bits.Mul64(v, m)
			r := v - qhat*q
			if r >= q {
				r -= q
			}
			out[i] = r
			i++
		}
		out = out[i:]
	}
}

// vectorUniform reports whether UniformSlice reduces modulo q, q not a
// power of two, on the AVX-512 kernel: where the CPU has the IFMA kernels
// (whose AVX512DQ the float conversions need), the kernel switch is on
// and 2^20 ≤ q < 2^62. The kernel writes the scalar body's words because
// the remainder of a draw is unique. Its quotient estimate is
// q̂ = trunc(fl(fl(v)·fl(1/q))): the conversion of v, the rounding of
// 1/q (float64(q) itself rounded from 2^53 up) and the product each add
// a relative error of at most 2^-53, so the product is within 2^-50.9
// of v/q relatively and, v/q being below 2^64/2^20 = 2^44, within
// 2^-6.9 < 1 absolutely. q̂ is therefore ⌊v/q⌋ − 1, ⌊v/q⌋ or ⌊v/q⌋ + 1
// and r = v − q̂·q, computed modulo 2^64, lies in (−q, 2q), which q <
// 2^62 keeps inside int64: one +q where r is negative and one −q where
// r ≥ q leave the canonical remainder v mod q, the scalar body's word.
func vectorUniform(q uint64) bool {
	return simd.IFMA() && simd.VectorKernels() && 1<<20 <= q && q < 1<<62
}

// DeriveSeed deterministically derives a sub-seed from the stream; used to
// give each switching-key digit its own independent expansion seed while
// the whole key set is still reproducible from one master seed.
func (s *Source) DeriveSeed() [SeedSize]byte {
	var seed [SeedSize]byte
	s.Fill(seed[:])
	return seed
}
