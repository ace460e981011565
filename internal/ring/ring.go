// Package ring implements arithmetic in the cyclotomic quotient rings
// R_q = Z_q[X]/(X^N + 1) that underlie RNS-CKKS: negacyclic number-theoretic
// transforms with precomputed twiddle factors, residue-number-system
// polynomials, Galois automorphisms, and the samplers (uniform, ternary,
// discrete Gaussian) used during key and ciphertext generation.
//
// Polynomials are stored limb-major: one coefficient vector per RNS modulus.
// In evaluation (NTT) form the slots are kept in bit-reversed order, the
// natural output order of the Cooley–Tukey transform.
package ring

import (
	"fmt"
	"math/bits"

	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/simd"
)

// SubRing holds the per-modulus precomputations for negacyclic NTTs of
// length N modulo a single prime q with q ≡ 1 (mod 2N).
type SubRing struct {
	N int    // transform length (power of two)
	Q uint64 // prime modulus

	Barrett mathutil.Barrett

	// Twiddle tables for the negacyclic transform. psi is a primitive
	// 2N-th root of unity mod q. twiddle[i] = psi^brv(i) and
	// invTwiddle[i] = psi^{-brv(i)}, brv over log2(N) bits, following the
	// Longa–Naehrig table layout for merged-psi NTTs.
	psi             uint64
	psiInv          uint64
	twiddle         []uint64
	twiddleShoup    []uint64
	invTwiddle      []uint64
	invTwiddleShoup []uint64

	nInv      uint64 // N^{-1} mod q, folded into the inverse transform
	nInvShoup uint64

	// nInvW = invTwiddle[1]·N^{-1} mod q, the one twiddle of a single-row
	// inverse transform's last stage with the N^{-1} epilogue folded in,
	// so that stage's difference output costs one Shoup product.
	nInvW, nInvWShoup uint64

	// vector is newSubRing's choice of the AVX-512 IFMA kernels
	// (ntt_amd64.s, innerproduct_amd64.s, pointwise_amd64.s) for the NTT,
	// the key product and the pointwise kernels, with vmont their
	// constants: made when the CPU and OS support them and q < 2^51, so
	// 2q fits a 52-bit lane (from 2^50 up the NTT kernels fold each
	// multiplicand below 2q). It never changes; simd.UseVectorKernels(false)
	// overrides it for every sub-ring at once.
	vector bool
	vmont  VectorMont

	// Montgomery constants: qNeg = −q⁻¹ mod 2^64 closes the fused inner
	// product (mathutil.MontReduce), and R = 2^64 mod q with its Shoup
	// companion puts a row in Montgomery form (MForm).
	qNeg, r, rShoup uint64

	// Optional observability attachments, shared by every AtLevel view
	// (views alias the SubRing pointers). Both are nil-safe no-ops when
	// detached; rec counts kernel invocations, tr records the limb
	// access stream for cache replay.
	rec *obs.Recorder
	tr  *memtrace.Tracer
}

// newSubRing builds the NTT tables for prime q and length N.
func newSubRing(n int, q uint64) (*SubRing, error) {
	if q%(2*uint64(n)) != 1 {
		return nil, fmt.Errorf("ring: modulus %d is not ≡ 1 (mod 2N=%d)", q, 2*n)
	}
	if !mathutil.IsPrime(q) {
		return nil, fmt.Errorf("ring: modulus %d is not prime", q)
	}
	logN := bits.Len(uint(n)) - 1
	s := &SubRing{
		N:       n,
		Q:       q,
		Barrett: mathutil.NewBarrett(q),
	}
	s.psi = mathutil.RootOfUnity(2*uint64(n), q)
	s.psiInv = mathutil.InvMod(s.psi, q)

	s.twiddle = make([]uint64, n)
	s.twiddleShoup = make([]uint64, n)
	s.invTwiddle = make([]uint64, n)
	s.invTwiddleShoup = make([]uint64, n)

	fwd, inv := uint64(1), uint64(1)
	powFwd := make([]uint64, n)
	powInv := make([]uint64, n)
	for i := 0; i < n; i++ {
		powFwd[i] = fwd
		powInv[i] = inv
		fwd = s.Barrett.MulMod(fwd, s.psi)
		inv = s.Barrett.MulMod(inv, s.psiInv)
	}
	for i := 0; i < n; i++ {
		r := int(mathutil.BitReverse(uint64(i), logN))
		s.twiddle[i] = powFwd[r]
		s.twiddleShoup[i] = mathutil.ShoupPrecomp(powFwd[r], q)
		s.invTwiddle[i] = powInv[r]
		s.invTwiddleShoup[i] = mathutil.ShoupPrecomp(powInv[r], q)
	}

	s.nInv = mathutil.InvMod(uint64(n), q)
	s.nInvShoup = mathutil.ShoupPrecomp(s.nInv, q)
	s.nInvW = mathutil.MulModShoup(s.invTwiddle[1], s.nInv, s.nInvShoup, q)
	s.nInvWShoup = mathutil.ShoupPrecomp(s.nInvW, q)
	s.vmont, s.vector = NewVectorMont(q)
	s.qNeg = mathutil.MontQNeg(q)
	s.r = mathutil.MontR(q)
	s.rShoup = mathutil.ShoupPrecomp(s.r, q)
	return s, nil
}

// Ring is the product ring ∏_i Z_{q_i}[X]/(X^N+1) over a chain of RNS
// moduli. Index 0 is the base modulus; CKKS drops moduli from the top of
// the chain as it rescales.
type Ring struct {
	N        int
	LogN     int
	Moduli   []uint64
	SubRings []*SubRing

	auto    *autoCache // Galois element -> NTT-domain permutation
	scratch *polyPool  // reusable full-limb scratch polynomials
	views   []*Ring    // AtLevel's views by level; the last is the full ring
}

// NewRing constructs a Ring of degree n (a power of two ≥ 16) over the given
// moduli, each of which must be a prime ≡ 1 (mod 2n).
func NewRing(n int, moduli []uint64) (*Ring, error) {
	if n < 16 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d is not a power of two ≥ 16", n)
	}
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: no moduli")
	}
	seen := make(map[uint64]bool, len(moduli))
	r := &Ring{
		N:        n,
		LogN:     bits.Len(uint(n)) - 1,
		Moduli:   append([]uint64(nil), moduli...),
		SubRings: make([]*SubRing, len(moduli)),
		auto:     &autoCache{tables: make(map[uint64][]int)},
	}
	r.scratch = newPolyPool(len(moduli), n)
	for i, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		s, err := newSubRing(n, q)
		if err != nil {
			return nil, err
		}
		r.SubRings[i] = s
	}
	r.views = make([]*Ring, len(moduli))
	for l := range r.views[:len(moduli)-1] {
		r.views[l] = &Ring{
			N:        r.N,
			LogN:     r.LogN,
			Moduli:   r.Moduli[:l+1],
			SubRings: r.SubRings[:l+1],
			auto:     r.auto,
			scratch:  r.scratch,
			views:    r.views,
		}
	}
	r.views[len(moduli)-1] = r
	return r, nil
}

// vectorKernel reports whether s's kernels run their vector bodies: its
// constructor chose them and the kernel switch (simd.UseVectorKernels)
// is on.
func (s *SubRing) vectorKernel() bool { return s.vector && simd.VectorKernels() }

// ifmaUsable reports whether modulus q can run on the vector kernels:
// the host has them (simd.IFMA) and q < 2^51.
func ifmaUsable(q uint64) bool {
	return simd.IFMA() && q < 1<<51
}

// MaxLevel returns the highest level (index of the last modulus).
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// SetRecorder attaches rec (nil detaches) to every sub-ring and to the
// scratch pool, enabling the ring.ntt / ring.intt kernel counters, the
// ring.ntt.bytes / ring.intt.bytes traffic counters and the
// ring.pool.get / ring.pool.miss occupancy counters. AtLevel views share
// sub-rings and the scratch pool, so attaching to the full ring covers
// every view and vice versa.
func (r *Ring) SetRecorder(rec *obs.Recorder) {
	for _, s := range r.SubRings {
		s.rec = rec
	}
	r.scratch.rec.Store(rec)
}

// SetTracer attaches t (nil detaches) to every sub-ring, enabling the
// limb-granular memory access stream. Like SetRecorder, attachment is
// shared across AtLevel views.
func (r *Ring) SetTracer(t *memtrace.Tracer) {
	for _, s := range r.SubRings {
		s.tr = t
	}
}

// Tracer returns the attached memory tracer, or nil when detached.
func (r *Ring) Tracer() *memtrace.Tracer {
	if len(r.SubRings) == 0 {
		return nil
	}
	return r.SubRings[0].tr
}

// AtLevel returns a shallow view of the ring restricted to moduli [0, level].
// The returned Ring shares all precomputed tables with r. NewRing builds
// every view once, so AtLevel allocates nothing; AtLevel(MaxLevel) of the
// full ring is the ring itself.
func (r *Ring) AtLevel(level int) *Ring {
	if level < 0 || level > r.MaxLevel() {
		panic(fmt.Sprintf("ring: level %d out of range [0,%d]", level, r.MaxLevel()))
	}
	return r.views[level]
}

// NewPoly allocates a zero polynomial with one limb per ring modulus.
func (r *Ring) NewPoly() *Poly {
	coeffs := make([][]uint64, len(r.Moduli))
	backing := make([]uint64, len(r.Moduli)*r.N)
	for i := range coeffs {
		coeffs[i], backing = backing[:r.N:r.N], backing[r.N:]
	}
	return &Poly{Coeffs: coeffs}
}
