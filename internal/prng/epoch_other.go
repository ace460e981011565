//go:build !amd64

package prng

// The epoch kernel is amd64-only: elsewhere simd.AVX512F is false and
// every epoch runs epochGeneric.
func epochAVX512(*[4]uint64, *[128]uint64) {
	panic("prng: no vector epoch kernel on this architecture")
}
