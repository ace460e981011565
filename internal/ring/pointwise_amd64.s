#include "textflag.h"
#include "ifma_amd64.h"

// AVX-512 IFMA pointwise limb kernels and the first stage of a basis
// extension; the arithmetic and its bounds are described in pointwise.go.
// Every kernel keeps Z31 = q, Z29 = 2^52 − 1 and Z28 = 2^52 − q
// resident (the stage-1 kernel reloads Z31 and Z28 per input limb).

// PWCONSTS loads Z31, Z29 and Z28 from the modulus Q; clobbers AX and DX.
#define PWCONSTS(Q) \
	MOVQ         Q, DX; \
	VPBROADCASTQ DX, Z31; \
	MOVQ         $0x000FFFFFFFFFFFFF, AX; \
	VPBROADCASTQ AX, Z29; \
	INCQ         AX; \
	SUBQ         DX, AX; \
	VPBROADCASTQ AX, Z28

// PWLOOP runs BODY over the R12 words at byte offset R11 from 0: whole
// groups of eight under an all-lanes K1, then one tail group under
// LANEMASK, and returns.
#define PWLOOP(BODY, FULL, TAIL, DONE) \
	XORQ  R11, R11; \
	MOVL  $0xff, AX; \
	KMOVW AX, K1; \
FULL: \
	CMPQ R12, $8; \
	JLT  TAIL; \
	BODY; \
	ADDQ $64, R11; \
	SUBQ $8, R12; \
	JMP  FULL; \
TAIL: \
	CMPQ R12, $0; \
	JLE  DONE; \
	LANEMASK(R12, K1); \
	BODY; \
DONE: \
	VZEROUPPER; \
	RET

// PRODUCT sets LO, HI ← the low and high 52 bits of A·B.
#define PRODUCT(A, B, LO, HI) \
	VPXORQ      LO, LO, LO; \
	VPXORQ      HI, HI, HI; \
	VPMADD52LUQ B, A, LO; \
	VPMADD52HUQ B, A, HI

// MODCLOSE sets LO ← T mod q in [0, q) for T = HI·2^52 + LO < 2^103,
// LO < 2^63: one REDC52 round (≡ T·2^-52, below T/2^52 + q < 2^52), the
// lazy Shoup product by Z26 = 2^52 mod q (Z25 its companion) and a fold.
// Clobbers HI and T.
#define MODCLOSE(LO, HI, T) \
	REDC52(LO, HI, T); \
	MULLAZY(HI, Z26, Z25, LO, T); \
	FOLD(LO, Z31, T)

// TENSORBODY: d0 = a0·b0, d2 = a1·b1, d1 = a0·b1 + a1·b0 summed in the
// lanes (lo < 2^53, which REDC52 takes as it is).
#define TENSORBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	VMOVDQU64.Z (R10)(R11*1), K1, Z1; \
	VMOVDQU64.Z (R13)(R11*1), K1, Z2; \
	VMOVDQU64.Z (R14)(R11*1), K1, Z3; \
	PRODUCT(Z0, Z2, Z4, Z5); \
	PRODUCT(Z1, Z3, Z6, Z7); \
	PRODUCT(Z0, Z3, Z8, Z9); \
	VPMADD52LUQ Z2, Z1, Z8; \
	VPMADD52HUQ Z2, Z1, Z9; \
	MODCLOSE(Z4, Z5, Z10); \
	MODCLOSE(Z6, Z7, Z11); \
	MODCLOSE(Z8, Z9, Z12); \
	VMOVDQU64 Z4, K1, (DI)(R11*1); \
	VMOVDQU64 Z8, K1, (R8)(R11*1); \
	VMOVDQU64 Z6, K1, (R9)(R11*1)

// TENSORCONSTS loads the close's constants: Z27 = −q⁻¹ mod 2^52,
// Z26 = 2^52 mod q, Z25 = its companion.
#define TENSORCONSTS(QN, R52, R52S) \
	VPBROADCASTQ QN, Z27; \
	VPBROADCASTQ R52, Z26; \
	VPBROADCASTQ R52S, Z25

// func tensorIFMA(d0, d1, d2, a0, a1, b0, b1 []uint64, q, qn, r52, r52s uint64)
TEXT ·tensorIFMA(SB), NOSPLIT, $0-200
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), R12
	MOVQ d1_base+24(FP), R8
	MOVQ d2_base+48(FP), R9
	MOVQ a0_base+72(FP), SI
	MOVQ a1_base+96(FP), R10
	MOVQ b0_base+120(FP), R13
	MOVQ b1_base+144(FP), R14
	PWCONSTS(q+168(FP))
	TENSORCONSTS(qn+176(FP), r52+184(FP), r52s+192(FP))
	PWLOOP(TENSORBODY, tensorFull, tensorTail, tensorDone)

// SQUAREBODY: d0 = a0², d2 = a1², d1 = 2·(a0·a1 mod q) folded.
#define SQUAREBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	VMOVDQU64.Z (R10)(R11*1), K1, Z1; \
	PRODUCT(Z0, Z0, Z4, Z5); \
	PRODUCT(Z1, Z1, Z6, Z7); \
	PRODUCT(Z0, Z1, Z8, Z9); \
	MODCLOSE(Z4, Z5, Z10); \
	MODCLOSE(Z6, Z7, Z11); \
	MODCLOSE(Z8, Z9, Z12); \
	VPADDQ Z8, Z8, Z8; \
	FOLD(Z8, Z31, Z10); \
	VMOVDQU64 Z4, K1, (DI)(R11*1); \
	VMOVDQU64 Z8, K1, (R8)(R11*1); \
	VMOVDQU64 Z6, K1, (R9)(R11*1)

// func tensorSquareIFMA(d0, d1, d2, a0, a1 []uint64, q, qn, r52, r52s uint64)
TEXT ·tensorSquareIFMA(SB), NOSPLIT, $0-152
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), R12
	MOVQ d1_base+24(FP), R8
	MOVQ d2_base+48(FP), R9
	MOVQ a0_base+72(FP), SI
	MOVQ a1_base+96(FP), R10
	PWCONSTS(q+120(FP))
	TENSORCONSTS(qn+128(FP), r52+136(FP), r52s+144(FP))
	PWLOOP(SQUAREBODY, squareFull, squareTail, squareDone)

// MSALOAD sets Z0 to the group's x words in place; MSAGATHER through the
// clamped index vector Z23 read from perm (R9), K2 the gather's mask.
#define MSALOAD VMOVDQU64.Z (SI)(R11*1), K1, Z0
#define MSAGATHER \
	VMOVDQU64.Z (R9)(R11*1), K1, Z23; \
	VPMINUQ     Z24, Z23, Z23; \
	KMOVW       K1, K2; \
	VPXORQ      Z0, Z0, Z0; \
	VPGATHERQQ  (SI)(Z23*8), K2, Z0

// MSABODY: acc += x·w (Z26 = w, Z25 = its companion), both folded.
#define MSABODY(LOAD) \
	LOAD; \
	MULLAZY(Z0, Z26, Z25, Z1, Z2); \
	FOLD(Z1, Z31, Z2); \
	VMOVDQU64.Z (DI)(R11*1), K1, Z3; \
	VPADDQ      Z3, Z1, Z1; \
	FOLD(Z1, Z31, Z2); \
	VMOVDQU64   Z1, K1, (DI)(R11*1)

#define MSAPLAIN MSABODY(MSALOAD)
#define MSAPERM MSABODY(MSAGATHER)

// func mulScalarAddIFMA(acc, x []uint64, perm []int, idxMax, w, ws, q uint64)
TEXT ·mulScalarAddIFMA(SB), NOSPLIT, $0-104
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R12
	MOVQ x_base+24(FP), SI
	MOVQ perm_base+48(FP), R9
	VPBROADCASTQ idxMax+72(FP), Z24
	VPBROADCASTQ w+80(FP), Z26
	VPBROADCASTQ ws+88(FP), Z25
	PWCONSTS(q+96(FP))
	TESTQ R9, R9
	JNZ   msaPerm
	PWLOOP(MSAPLAIN, msaFull, msaTail, msaDone)
msaPerm:
	PWLOOP(MSAPERM, msaPermFull, msaPermTail, msaPermDone)

// SUBMULBODY: out = (a + q − b)·w, a + q − b in (0, 2q), folded.
#define SUBMULBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	VMOVDQU64.Z (R9)(R11*1), K1, Z1; \
	VPADDQ      Z31, Z0, Z0; \
	VPSUBQ      Z1, Z0, Z0; \
	MULLAZY(Z0, Z26, Z25, Z2, Z3); \
	FOLD(Z2, Z31, Z3); \
	VMOVDQU64 Z2, K1, (DI)(R11*1)

// func subMulIFMA(out, a, b []uint64, w, ws, q uint64)
TEXT ·subMulIFMA(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R12
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R9
	VPBROADCASTQ w+72(FP), Z26
	VPBROADCASTQ ws+80(FP), Z25
	PWCONSTS(q+88(FP))
	PWLOOP(SUBMULBODY, subMulFull, subMulTail, subMulDone)

// MULBODY: out = x·w (Z26 = w, Z25 = its companion), folded.
#define MULBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	MULLAZY(Z0, Z26, Z25, Z1, Z2); \
	FOLD(Z1, Z31, Z2); \
	VMOVDQU64   Z1, K1, (DI)(R11*1)

// func mulScalarIFMA(out, x []uint64, w, ws, q uint64)
TEXT ·mulScalarIFMA(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R12
	MOVQ x_base+24(FP), SI
	VPBROADCASTQ w+48(FP), Z26
	VPBROADCASTQ ws+56(FP), Z25
	PWCONSTS(q+64(FP))
	PWLOOP(MULBODY, mulFull, mulTail, mulDone)

// ADDBODY: out = a + b, in [0, 2q), folded.
#define ADDBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	VMOVDQU64.Z (R9)(R11*1), K1, Z1; \
	VPADDQ      Z1, Z0, Z0; \
	FOLD(Z0, Z31, Z2); \
	VMOVDQU64   Z0, K1, (DI)(R11*1)

// func addIFMA(out, a, b []uint64, q uint64)
TEXT ·addIFMA(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R12
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R9
	PWCONSTS(q+72(FP))
	PWLOOP(ADDBODY, addFull, addTail, addDone)

// SUBBODY: out = a + q − b, in (0, 2q), folded.
#define SUBBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	VMOVDQU64.Z (R9)(R11*1), K1, Z1; \
	VPADDQ      Z31, Z0, Z0; \
	VPSUBQ      Z1, Z0, Z0; \
	FOLD(Z0, Z31, Z2); \
	VMOVDQU64   Z0, K1, (DI)(R11*1)

// func subIFMA(out, a, b []uint64, q uint64)
TEXT ·subIFMA(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R12
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R9
	PWCONSTS(q+72(FP))
	PWLOOP(SUBBODY, subFull, subTail, subDone)

// REDADDBODY: out = (x mod q + c) mod q, x mod q the lazy product by
// Z26 = 1 (Z25 = ⌊2^52/q⌋) folded, c in Z24.
#define REDADDBODY \
	VMOVDQU64.Z (SI)(R11*1), K1, Z0; \
	MULLAZY(Z0, Z26, Z25, Z1, Z2); \
	FOLD(Z1, Z31, Z2); \
	VPADDQ      Z24, Z1, Z1; \
	FOLD(Z1, Z31, Z2); \
	VMOVDQU64 Z1, K1, (DI)(R11*1)

// func reduceAddIFMA(out, x []uint64, c, oneShoup, q uint64)
TEXT ·reduceAddIFMA(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R12
	MOVQ x_base+24(FP), SI
	VPBROADCASTQ c+48(FP), Z24
	VPBROADCASTQ oneShoup+56(FP), Z25
	MOVQ $1, AX
	VPBROADCASTQ AX, Z26
	PWCONSTS(q+64(FP))
	PWLOOP(REDADDBODY, redAddFull, redAddTail, redAddDone)

// func scaleEstimateIFMA(src [][]uint64, off int, y [][]uint64, v, rows []uint64)
//
// Two groups per iteration, masks K1 and K3; per input limb i the row
// rows[5i:5i+5] = q, 2^52 − q, w, w's companion, 1/q loads Z31, Z28,
// Z26, Z25 and Z24, and the float sums of the two groups run in Z0, Z1.
TEXT ·scaleEstimateIFMA(SB), NOSPLIT, $0-104
	MOVQ src_base+0(FP), SI
	MOVQ off+24(FP), DX
	SHLQ $3, DX           // the source rows' byte offset
	MOVQ y_base+32(FP), DI
	MOVQ v_base+56(FP), R8
	MOVQ v_len+64(FP), R12
	MOVQ rows_base+80(FP), R9
	MOVQ rows_len+88(FP), BX
	LEAQ (R9)(BX*8), BX   // the end of the constant rows
	MOVQ $0x000FFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z29
	XORQ R11, R11         // byte offset of the first group

seLoop:
	CMPQ R12, $0
	JLE  seDone
	LANEMASK(R12, K1)
	LEAQ -8(R12), R10
	LANEMASK(R10, K3)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   R9, R10        // this limb's constant row
	XORQ   R13, R13       // i·24

seRow:
	VPBROADCASTQ 0(R10), Z31
	VPBROADCASTQ 8(R10), Z28
	VPBROADCASTQ 16(R10), Z26
	VPBROADCASTQ 24(R10), Z25
	VPBROADCASTQ 32(R10), Z24
	MOVQ         (SI)(R13*1), AX
	ADDQ         DX, AX
	VMOVDQU64.Z  (AX)(R11*1), K1, Z2
	VMOVDQU64.Z  64(AX)(R11*1), K3, Z3
	MULLAZY(Z2, Z26, Z25, Z4, Z6)
	MULLAZY(Z3, Z26, Z25, Z5, Z7)
	FOLD(Z4, Z31, Z6)
	FOLD(Z5, Z31, Z7)
	MOVQ         (DI)(R13*1), CX
	VMOVDQU64    Z4, K1, (CX)(R11*1)
	VMOVDQU64    Z5, K3, 64(CX)(R11*1)
	VCVTUQQ2PD   Z4, Z4
	VCVTUQQ2PD   Z5, Z5
	VMULPD       Z24, Z4, Z4
	VMULPD       Z24, Z5, Z5
	VADDPD       Z4, Z0, Z0
	VADDPD       Z5, Z1, Z1
	ADDQ         $40, R10
	ADDQ         $24, R13
	CMPQ         R10, BX
	JNE          seRow
	VCVTTPD2UQQ Z0, Z0
	VCVTTPD2UQQ Z1, Z1
	VMOVDQU64   Z0, K1, (R8)(R11*1)
	VMOVDQU64   Z1, K3, 64(R8)(R11*1)
	ADDQ        $128, R11
	SUBQ        $16, R12
	JMP         seLoop

seDone:
	VZEROUPPER
	RET
