#include "textflag.h"

// The AVX-512F chacha8rand epoch; the layout is described in epoch.go.
// Z0–Z15 hold state words 0–15 of the 16 blocks, block b in 32-bit lane
// b; Z16–Z23 keep the key rows for the add-back.

// QR is the ChaCha quarter round on rows A, B, C and D.
#define QR(A, B, C, D) \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $16, D, D; \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $12, B, B; \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $8, D, D;  \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $7, B, B

// STORE writes row R, state word W of the 16 blocks, in the order of
// four 4-block calls of the stdlib's block function: 128-bit lane k
// (blocks 4k…4k+3) to bytes k·256 + W·16 of the epoch.
#define STORE(R, W) \
	VEXTRACTI32X4 $0, R, (W*16)(BX);     \
	VEXTRACTI32X4 $1, R, (256+W*16)(BX); \
	VEXTRACTI32X4 $2, R, (512+W*16)(BX); \
	VEXTRACTI32X4 $3, R, (768+W*16)(BX)

// func epochAVX512(seed *[4]uint64, buf *[128]uint64)
TEXT ·epochAVX512(SB), NOSPLIT, $0-16
	MOVQ seed+0(FP), AX
	MOVQ buf+8(FP), BX

	// Rows 0–3: "expand 32-byte k". Row 12: the block counters 0–15.
	// Rows 13–15: zero.
	VPBROADCASTD ·sigma<>+0(SB), Z0
	VPBROADCASTD ·sigma<>+4(SB), Z1
	VPBROADCASTD ·sigma<>+8(SB), Z2
	VPBROADCASTD ·sigma<>+12(SB), Z3
	VMOVDQU32    ·counters<>(SB), Z12
	VPXORD       Z13, Z13, Z13
	VPXORD       Z14, Z14, Z14
	VPXORD       Z15, Z15, Z15

	// Rows 4–11: the key's 32-bit words, kept in Z16–Z23.
	VPBROADCASTD 0(AX), Z16
	VPBROADCASTD 4(AX), Z17
	VPBROADCASTD 8(AX), Z18
	VPBROADCASTD 12(AX), Z19
	VPBROADCASTD 16(AX), Z20
	VPBROADCASTD 20(AX), Z21
	VPBROADCASTD 24(AX), Z22
	VPBROADCASTD 28(AX), Z23
	VMOVDQA32    Z16, Z4
	VMOVDQA32    Z17, Z5
	VMOVDQA32    Z18, Z6
	VMOVDQA32    Z19, Z7
	VMOVDQA32    Z20, Z8
	VMOVDQA32    Z21, Z9
	VMOVDQA32    Z22, Z10
	VMOVDQA32    Z23, Z11

	// 4 double rounds: a column round, then a diagonal round.
	MOVL $4, CX

loop:
	QR(Z0, Z4, Z8, Z12)
	QR(Z1, Z5, Z9, Z13)
	QR(Z2, Z6, Z10, Z14)
	QR(Z3, Z7, Z11, Z15)
	QR(Z0, Z5, Z10, Z15)
	QR(Z1, Z6, Z11, Z12)
	QR(Z2, Z7, Z8, Z13)
	QR(Z3, Z4, Z9, Z14)
	DECL CX
	JNZ  loop

	// Add the key back into rows 4–11 only, as chacha8rand does.
	VPADDD Z16, Z4, Z4
	VPADDD Z17, Z5, Z5
	VPADDD Z18, Z6, Z6
	VPADDD Z19, Z7, Z7
	VPADDD Z20, Z8, Z8
	VPADDD Z21, Z9, Z9
	VPADDD Z22, Z10, Z10
	VPADDD Z23, Z11, Z11

	STORE(Z0, 0)
	STORE(Z1, 1)
	STORE(Z2, 2)
	STORE(Z3, 3)
	STORE(Z4, 4)
	STORE(Z5, 5)
	STORE(Z6, 6)
	STORE(Z7, 7)
	STORE(Z8, 8)
	STORE(Z9, 9)
	STORE(Z10, 10)
	STORE(Z11, 11)
	STORE(Z12, 12)
	STORE(Z13, 13)
	STORE(Z14, 14)
	STORE(Z15, 15)
	VZEROUPPER
	RET

GLOBL ·sigma<>(SB), RODATA|NOPTR, $16
DATA ·sigma<>+0(SB)/4, $0x61707865
DATA ·sigma<>+4(SB)/4, $0x3320646e
DATA ·sigma<>+8(SB)/4, $0x79622d32
DATA ·sigma<>+12(SB)/4, $0x6b206574

GLOBL ·counters<>(SB), RODATA|NOPTR, $64
DATA ·counters<>+0(SB)/4, $0
DATA ·counters<>+4(SB)/4, $1
DATA ·counters<>+8(SB)/4, $2
DATA ·counters<>+12(SB)/4, $3
DATA ·counters<>+16(SB)/4, $4
DATA ·counters<>+20(SB)/4, $5
DATA ·counters<>+24(SB)/4, $6
DATA ·counters<>+28(SB)/4, $7
DATA ·counters<>+32(SB)/4, $8
DATA ·counters<>+36(SB)/4, $9
DATA ·counters<>+40(SB)/4, $10
DATA ·counters<>+44(SB)/4, $11
DATA ·counters<>+48(SB)/4, $12
DATA ·counters<>+52(SB)/4, $13
DATA ·counters<>+56(SB)/4, $14
DATA ·counters<>+60(SB)/4, $15
