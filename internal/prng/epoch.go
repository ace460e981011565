package prng

import "repro/internal/simd"

// The chacha8rand epoch (C2SP chacha8rand; internal/chacha8rand in the
// Go tree). An epoch runs ChaCha8 — ChaCha with 4 double rounds — on 16
// blocks over one key, at counters 0 to 15. Each block's state is the
// 4×4 matrix of 32-bit words
//
//	"expa" "nd 3" "2-by" "te k"    rows 0–3: the ChaCha constants
//	 k0     k1     k2     k3       rows 4–11: the key, seed word i
//	 k4     k5     k6     k7       split into its low and high halves
//	 ctr    0      0      0        row 12: the block counter
//
// numbered row-major 0–15 ("row w" below is state word w). After the
// rounds, words 4–11 get the key added back; words 0–3 and 12–15 are
// output as they are (chacha8rand leaves out the additions that add no
// entropy). The output interleaves blocks four at a time, as a 4-way
// SIMD block function stores them: for the group of blocks 4k…4k+3, the
// 32-bit word w of block 4k+j is word k·64 + w·4 + j of the epoch. Read
// as little-endian 64-bit words, the first epochWords are the stream and
// the last four the next epoch's key.
//
// Both bodies map the same key to the same 128 words. epochAVX512 keeps
// word w of all 16 blocks in one ZMM register, one block per 32-bit
// lane, so 128-bit lane k of row w is the 16 bytes at k·256 + w·16.

// epochWords is the number of output words of an epoch.
const epochWords = 124

// epoch writes the epoch of key seed into buf: on the AVX-512 kernel
// where the CPU has AVX512F and the kernel switch is on, else on the
// scalar body. The body is chosen per call; both write the same words.
func epoch(seed *[4]uint64, buf *[128]uint64) {
	if simd.AVX512F() && simd.VectorKernels() {
		epochAVX512(seed, buf)
		return
	}
	epochGeneric(seed, buf)
}

// epochGeneric is the scalar epoch: internal/chacha8rand's
// block_generic, run on the 16 blocks two at a time.
func epochGeneric(seed *[4]uint64, buf *[128]uint64) {
	for b := uint32(0); b < 16; b += 2 {
		even, odd := block(seed, b), block(seed, b+1)
		// Word w of blocks b and b+1 is the 64-bit word
		// (b/4)·32 + w·2 + (b%4)/2, block b its low half.
		base := (b>>2)*32 + (b&3)>>1
		for w := range even {
			buf[base+2*uint32(w)] = uint64(even[w]) | uint64(odd[w])<<32
		}
	}
}

// block returns the ChaCha8 block of key seed at counter ctr, key words
// added back into words 4–11 only.
func block(seed *[4]uint64, ctr uint32) [16]uint32 {
	k0, k1, k2, k3 := uint32(seed[0]), uint32(seed[0]>>32), uint32(seed[1]), uint32(seed[1]>>32)
	k4, k5, k6, k7 := uint32(seed[2]), uint32(seed[2]>>32), uint32(seed[3]), uint32(seed[3]>>32)
	b0, b1, b2, b3 := uint32(0x61707865), uint32(0x3320646e), uint32(0x79622d32), uint32(0x6b206574)
	b4, b5, b6, b7, b8, b9, b10, b11 := k0, k1, k2, k3, k4, k5, k6, k7
	b12, b13, b14, b15 := ctr, uint32(0), uint32(0), uint32(0)
	for range 4 {
		b0, b4, b8, b12 = qr(b0, b4, b8, b12)
		b1, b5, b9, b13 = qr(b1, b5, b9, b13)
		b2, b6, b10, b14 = qr(b2, b6, b10, b14)
		b3, b7, b11, b15 = qr(b3, b7, b11, b15)

		b0, b5, b10, b15 = qr(b0, b5, b10, b15)
		b1, b6, b11, b12 = qr(b1, b6, b11, b12)
		b2, b7, b8, b13 = qr(b2, b7, b8, b13)
		b3, b4, b9, b14 = qr(b3, b4, b9, b14)
	}
	return [16]uint32{
		b0, b1, b2, b3,
		b4 + k0, b5 + k1, b6 + k2, b7 + k3,
		b8 + k4, b9 + k5, b10 + k6, b11 + k7,
		b12, b13, b14, b15,
	}
}

// qr is the ChaCha quarter round.
func qr(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = d<<16 | d>>16
	c += d
	b ^= c
	b = b<<12 | b>>20
	a += b
	d ^= a
	d = d<<8 | d>>24
	c += d
	b ^= c
	b = b<<7 | b>>25
	return a, b, c, d
}
