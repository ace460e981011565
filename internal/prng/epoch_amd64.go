package prng

// epochAVX512 is the AVX-512F epoch: the 16 blocks of the epoch run side
// by side, block b in 32-bit lane b of every row (epoch_amd64.s). The
// caller checks simd.AVX512F.
//
//go:noescape
func epochAVX512(seed *[4]uint64, buf *[128]uint64)
