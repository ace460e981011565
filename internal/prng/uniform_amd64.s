#include "textflag.h"

// UniformSlice's reduction, eight words per step; the error argument is
// at vectorUniform (prng.go). Z1 = q, Z2 = limit, Z3 = fl(1/q) in every
// lane; DX counts the words written.

// func uniformAVX512(out, in []uint64, q, limit uint64, qinv float64) int
TEXT ·uniformAVX512(SB), NOSPLIT, $0-80
	MOVQ         out_base+0(FP), DI
	MOVQ         in_base+24(FP), SI
	MOVQ         in_len+32(FP), CX
	VPBROADCASTQ q+48(FP), Z1
	VPBROADCASTQ limit+56(FP), Z2
	VBROADCASTSD qinv+64(FP), Z3
	XORQ         DX, DX
	SHRQ         $3, CX
	JZ           done

loop:
	VMOVDQU64   (SI), Z4
	VPCMPUQ     $5, Z2, Z4, K1 // accepted: v ≥ limit
	VCVTUQQ2PD  Z4, Z5
	VMULPD      Z3, Z5, Z5
	VCVTTPD2UQQ Z5, Z5         // q̂ ∈ {⌊v/q⌋ − 1, ⌊v/q⌋, ⌊v/q⌋ + 1}
	VPMULLQ     Z1, Z5, Z5
	VPSUBQ      Z5, Z4, Z4     // r = v − q̂·q ∈ (−q, 2q)
	VPMOVQ2M    Z4, K2         // r < 0
	VPADDQ      Z1, Z4, K2, Z4
	VPCMPUQ     $5, Z1, Z4, K3 // r ≥ q
	VPSUBQ      Z1, Z4, K3, Z4
	KORTESTB    K1, K1
	JCC         rejected
	VMOVDQU64   Z4, (DI)(DX*8)
	ADDQ        $8, DX
	JMP         next

rejected:
	// Only the accepted lanes, packed: what the scalar loop writes.
	VPCOMPRESSQ Z4, K1, (DI)(DX*8)
	KMOVB       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, DX

next:
	ADDQ $64, SI
	DECQ CX
	JNZ  loop

done:
	MOVQ DX, ret+72(FP)
	VZEROUPPER
	RET
