// Package simd is the one CPU probe and the one kernel switch. Every
// kernel with a vector body — ring's NTT, key product and pointwise
// kernels, rns's extension tables, prng's ChaCha8 epoch and UniformSlice
// reduction — runs it only where the probe found the instructions it
// needs and the switch is on.
// It imports nothing of this module, so every kernel package can read it.
package simd

import "sync/atomic"

// scalarOnly is the kernel switch, off by default: set, every kernel
// runs its scalar Go body whatever its constructor or the probe chose.
// Each kernel call reads it once, at entry, never per word.
var scalarOnly atomic.Bool

// UseVectorKernels sets the kernel switch: on (the default) runs every
// kernel on the body its constructor and the probe chose, off runs every
// one on the scalar Go body. Both write the same words; the switch
// exists so tests and benchmarks can run both. It reports whether this
// host has the IFMA kernels (IFMA). A call already running finishes on
// the body it started on.
func UseVectorKernels(on bool) bool {
	scalarOnly.Store(!on)
	return hasIFMA
}

// VectorKernels reports whether the kernel switch is on: the check a
// kernel makes next to its constructor's choice.
func VectorKernels() bool { return !scalarOnly.Load() }

// AVX512F reports whether the CPU has AVX512F and the OS saves the ZMM
// state: what the ChaCha8 epoch kernel needs.
func AVX512F() bool { return hasAVX512F }

// IFMA reports whether the CPU has AVX512F, AVX512DQ (the first stage of
// a basis extension and prng's UniformSlice reduction convert with
// VCVTUQQ2PD and VCVTTPD2UQQ) and AVX512IFMA, and the OS saves the ZMM
// state: what the arithmetic kernels need.
func IFMA() bool { return hasIFMA }
