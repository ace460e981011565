// Package simfhe is the heart of this repository: an analytic simulator of
// CKKS-based fully homomorphic encryption workloads, reproducing the
// paper's SimFHE. For a given CKKS parameter set, on-chip memory size and
// set of MAD optimizations, it tracks
//
//   - compute, at the modular-arithmetic level (modular multiplications
//     and additions, with NTT counts broken out), and
//   - DRAM traffic, split into ciphertext-limb reads/writes, switching-key
//     reads and plaintext reads, derived from data sizes and cache
//     capacity rather than trace-driven cache simulation,
//
// for every primitive operation of Table 2, for the full bootstrapping
// pipeline of Algorithm 4, and for end-to-end applications (HELR logistic
// regression training, ResNet-20 inference).
//
// The seven MAD optimizations of §3 are individually toggleable, and the
// simulator deploys only those the configured on-chip memory can support,
// exactly as the paper describes.
package simfhe

import (
	"fmt"
)

// Params mirrors the paper's Table 1: the CKKS parameters that determine
// cost. Limb counts rather than explicit moduli — the simulator is
// analytic and needs only sizes.
type Params struct {
	LogN    int // ring degree exponent; N = 2^LogN
	LogQ    int // bits per limb modulus q (machine-word prime)
	L       int // number of limbs in a full ciphertext (ℓ_max)
	Dnum    int // digits in the switching key
	FFTIter int // PtMatVecMult iterations in CoeffToSlot/SlotToCoeff

	// EvalMod shape (the paper keeps these internal to its bootstrapping
	// model; they are explicit here so ablations can vary them).
	SineDegree  int // Chebyshev degree of the sine approximation
	DoubleAngle int // double-angle refinement steps

	// LogSlots selects sparse-slot bootstrapping (§4.3: "for the
	// applications, we utilize bootstrapping implementation with fewer
	// ciphertext slots"): the homomorphic DFTs shrink to 2^LogSlots
	// slots, at the price of a SubSum ladder of logN−1−LogSlots
	// rotations after the raise. Zero means fully packed (N/2 slots).
	LogSlots int
}

// Baseline returns the GPU baseline parameter set of Table 5 (Jung et
// al. [20]): N = 2^17, q = 54, L = 35, dnum = 3, fftIter = 3.
func Baseline() Params {
	return Params{LogN: 17, LogQ: 54, L: 35, Dnum: 3, FFTIter: 3,
		SineDegree: 31, DoubleAngle: 2}
}

// Optimal returns the paper's throughput-maximizing parameter set of
// Table 5: N = 2^17, q = 50, L = 40, dnum = 2, fftIter = 6.
func Optimal() Params {
	return Params{LogN: 17, LogQ: 50, L: 40, Dnum: 2, FFTIter: 6,
		SineDegree: 31, DoubleAngle: 2}
}

// Validate reports whether the parameter set is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.LogN < 9 || p.LogN > 18:
		return fmt.Errorf("simfhe: LogN %d outside [9,18]", p.LogN)
	case p.LogQ < 20 || p.LogQ > 60:
		return fmt.Errorf("simfhe: LogQ %d outside [20,60]", p.LogQ)
	case p.L < 2:
		return fmt.Errorf("simfhe: L %d too small", p.L)
	case p.Dnum < 1 || p.Dnum > p.L:
		return fmt.Errorf("simfhe: Dnum %d outside [1,%d]", p.Dnum, p.L)
	case p.FFTIter < 1 || p.FFTIter > p.LogN-1:
		return fmt.Errorf("simfhe: FFTIter %d outside [1,%d]", p.FFTIter, p.LogN-1)
	case p.LogSlots != 0 && (p.LogSlots < 4 || p.LogSlots > p.LogN-1):
		return fmt.Errorf("simfhe: LogSlots %d outside [4,%d]", p.LogSlots, p.LogN-1)
	case p.LogSlots != 0 && p.FFTIter > p.LogSlots:
		return fmt.Errorf("simfhe: FFTIter %d exceeds sparse logn %d", p.FFTIter, p.LogSlots)
	}
	return nil
}

// N returns the ring degree.
func (p Params) N() int { return 1 << p.LogN }

// Slots returns the bootstrapped plaintext slot count: N/2 when fully
// packed, 2^LogSlots under sparse packing.
func (p Params) Slots() int { return 1 << p.logSlots() }

func (p Params) logSlots() int {
	if p.LogSlots == 0 {
		return p.LogN - 1
	}
	return p.LogSlots
}

// SubSumRotations returns the rotation count of the sparse-packing SubSum
// step (zero when fully packed).
func (p Params) SubSumRotations() int { return p.LogN - 1 - p.logSlots() }

// Alpha is the number of limbs per key-switching digit — and equally the
// number of raised special limbs: α = ⌈(L+1)/dnum⌉ (Table 1).
func (p Params) Alpha() int { return (p.L + p.Dnum) / p.Dnum }

// Beta returns the digit count for an ℓ-limb polynomial: β = ⌈ℓ/α⌉.
func (p Params) Beta(limbs int) int {
	a := p.Alpha()
	return (limbs + a - 1) / a
}

// RaisedLimbs returns the limb count of a polynomial raised to the Q∪P
// basis during key switching: ℓ + α.
func (p Params) RaisedLimbs(limbs int) int { return limbs + p.Alpha() }

// LimbBytes returns the size of one limb: 8N bytes (one machine word per
// coefficient).
func (p Params) LimbBytes() uint64 { return 8 * uint64(p.N()) }

// CiphertextBytes returns the size of a full ciphertext: 2·N·L words.
func (p Params) CiphertextBytes() uint64 { return 2 * uint64(p.L) * p.LimbBytes() }

// SwitchingKeyBytes returns the size of one switching key: a 2×dnum matrix
// of raised (L+α limbs) polynomials (Eq. 2), halved under key compression.
func (p Params) SwitchingKeyBytes(compressed bool) uint64 {
	limbs := uint64(p.RaisedLimbs(p.L))
	full := 2 * uint64(p.Dnum) * limbs * p.LimbBytes()
	if compressed {
		return full / 2
	}
	return full
}

// TotalLogQP returns the total modulus bit count including the raised
// special limbs, the quantity the RLWE security level constrains.
func (p Params) TotalLogQP() int {
	return p.LogQ * (p.L + p.Alpha())
}

// MaxLogQP returns the maximum secure total modulus size for a ring degree
// at 128-bit security (HomomorphicEncryption.org standard table for
// uniform ternary secrets, doubling per LogN step above 2^15).
func MaxLogQP(logN int) int {
	switch {
	case logN <= 13:
		return 218
	case logN == 14:
		return 438
	case logN == 15:
		return 881
	case logN == 16:
		return 1761
	case logN == 17:
		return 3524
	default:
		return 7050
	}
}

// IsSecure reports whether the parameters meet 128-bit security.
func (p Params) IsSecure() bool { return p.TotalLogQP() <= MaxLogQP(p.LogN) }

func (p Params) String() string {
	return fmt.Sprintf("Params{N=2^%d q=%d L=%d dnum=%d fftIter=%d}", p.LogN, p.LogQ, p.L, p.Dnum, p.FFTIter)
}
