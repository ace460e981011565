package main

import (
	"math/bits"
	"time"
)

// The sandbox is a few cores of a shared host, and the speed of those
// cores is not steady: it moves by a few percent from one second to the
// next and by up to 1.5× over some twenty minutes, for every kind of code
// at once (see README, "Host speed"). A wall-clock time read there is the
// program's time multiplied by the host's slowness at that moment, and no
// estimator over the samples of one run can take the second factor out.
//
// So the benchmark measures that factor. A reference kernel whose code is
// frozen in this file, and which therefore no change to the repository can
// make faster or slower, is timed immediately before and after every step
// of a workload; the step's times are divided by how much slower than
// refNominalMs the two ticks around it ran. The wall-clock end-to-end
// metrics are times at nominal host speed.

const (
	// The reference holds refLimbs limbs of refN words, 8 MiB, and one tick
	// transforms the next refTickLimbs of them, 3.75 MiB, going round. The
	// sandbox's cores have 2 MiB of second-level cache each, so a tick
	// streams its limbs through the cache shared with the host's other
	// tenants, at about 1 GB/s, as the workloads do with their ciphertexts
	// and keys: it slows both when the cores do and when the memory does.
	refLimbs     = 128
	refN         = 1 << 13
	refTickLimbs = 60
	// refModulus is a 61-bit prime-sized odd modulus; the kernel needs only
	// 4·refModulus < 2^64.
	refModulus = 1<<61 - 1
	// refNominalMs is what one tick takes on the sandbox in its usual fast
	// phase. It fixes the scale of the normalised times and nothing else: a
	// change is compared with its parent under the same constant.
	refNominalMs = 7.5
)

// refKernel is the reference: radix-2 butterfly passes with Shoup-style
// lazy modular products, the instruction mix (64×64→128 multiplies,
// conditional subtractions, strided loads and stores) of the NTT and
// basis-conversion kernels that dominate every workload. Its values are
// not a transform of anything; they only stay in [0, 4q).
type refKernel struct {
	limbs   [][]uint64
	next    int      // the limb the next tick starts at
	w, wInv []uint64 // twiddle and its Shoup companion ⌊w·2^64/q⌋
}

func newRefKernel() *refKernel {
	// xorshift64: the kernel's data must not depend on the seed of the run
	// or on anything the repository provides.
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	k := &refKernel{w: make([]uint64, refN), wInv: make([]uint64, refN)}
	for i := range k.w {
		k.w[i] = next() % refModulus
		k.wInv[i], _ = bits.Div64(k.w[i], 0, refModulus)
	}
	for i := 0; i < refLimbs; i++ {
		limb := make([]uint64, refN)
		for j := range limb {
			limb[j] = next() % refModulus
		}
		k.limbs = append(k.limbs, limb)
	}
	return k
}

// transform runs log2(refN) butterfly stages over one limb, in place.
func (k *refKernel) transform(limb []uint64) {
	const q, twoQ = uint64(refModulus), 2 * uint64(refModulus)
	for half := refN / 2; half >= 1; half >>= 1 {
		for start, t := 0, 0; start < refN; start, t = start+2*half, t+1 {
			w, wInv := k.w[t], k.wInv[t]
			x, y := limb[start:start+half], limb[start+half:start+2*half]
			for j := range x {
				u := x[j]
				if u >= twoQ {
					u -= twoQ
				}
				hi, _ := bits.Mul64(y[j], wInv)
				v := y[j]*w - hi*q // (y·w) mod q, lazily in [0, 2q)
				x[j], y[j] = u+v, u+twoQ-v
			}
		}
	}
}

// tick runs the reference once and returns how long it took, in ms.
func (k *refKernel) tick() float64 {
	start := time.Now()
	for i := 0; i < refTickLimbs; i++ {
		k.transform(k.limbs[k.next])
		k.next = (k.next + 1) % refLimbs
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// checksum folds the kernel's state into one word. The test pins it, so
// that an edit to the kernel cannot pass for a change of the host.
func (k *refKernel) checksum() uint64 {
	var sum uint64
	for _, limb := range k.limbs {
		for _, v := range limb {
			sum = sum*0x9e3779b97f4a7c15 + v
		}
	}
	return sum
}

// slowdown is how much slower than nominal the host ran between two ticks.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / refNominalMs
}
