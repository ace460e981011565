//go:build !amd64

package simd

// The vector kernels are amd64-only: elsewhere every kernel runs its
// scalar Go body.
const hasAVX512F, hasIFMA = false, false
