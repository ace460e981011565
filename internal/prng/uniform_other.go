//go:build !amd64

package prng

// The reduction kernel is amd64-only: elsewhere simd.IFMA is false and
// UniformSlice reduces every word on the scalar body.
func uniformAVX512(_, _ []uint64, _, _ uint64, _ float64) int {
	panic("prng: no vector reduction kernel on this architecture")
}
