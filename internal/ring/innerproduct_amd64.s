#include "textflag.h"
#include "ifma_amd64.h"

// AVX-512 IFMA multiply-accumulate kernels: the key-switch inner product
// (gatherMulAccIFMA) and the seeded sum of a basis extension's second
// stage (seededSumIFMA), eight output words per ZMM vector. The
// arithmetic and its bounds are described in innerproduct.go. Both keep
// these constants resident:
//
//	Z31 = q, Z29 = 2^52 − 1, Z28 = 2^52 − q, Z27 = −q⁻¹ mod 2^52,
//	Z26 = 2^40 mod q, Z25 = ⌊Z26·2^52/q⌋, Z24 = the largest valid index
//
// and walk the output in groups of eight words, a group past the end
// masked. LANEMASK and REDC52 are in ifma_amd64.h.

// CLOSECONSTS loads Z25–Z29 and Z31 from the arguments; clobbers AX.
#define CLOSECONSTS(Q, QN, R40, R40S) \
	VPBROADCASTQ Q, Z31; \
	VPBROADCASTQ QN, Z27; \
	VPBROADCASTQ R40, Z26; \
	VPBROADCASTQ R40S, Z25; \
	MOVQ         $0x000FFFFFFFFFFFFF, AX; \
	VPBROADCASTQ AX, Z29; \
	INCQ         AX; \
	SUBQ         Q, AX; \
	VPBROADCASTQ AX, Z28

// MONTCLOSE sets LO ← T·2^-64 mod q in [0, q) for the lane sum
// T = HI·2^52 + LO, HI < 2^62: normalize, two 52-bit REDC rounds
// (T·2^-104, below q + 2^12), then one Shoup product by 2^40 and a
// conditional subtract. Clobbers HI and T.
#define MONTCLOSE(LO, HI, T) \
	VPSRLQ      $52, LO, T; \
	VPADDQ      T, HI, HI; \
	VPANDQ      Z29, LO, LO; \
	REDC52(LO, HI, T); \
	VPANDQ      Z29, HI, LO; \
	VPSRLQ      $52, HI, HI; \
	REDC52(LO, HI, T); \
	VPXORQ      T, T, T; \
	VPMADD52HUQ Z25, HI, T; \
	VPXORQ      LO, LO, LO; \
	VPMADD52LUQ Z26, HI, LO; \
	VPMADD52LUQ Z28, T, LO; \
	VPANDQ      Z29, LO, LO; \
	VPSUBQ      Z31, LO, T; \
	VPMINUQ     T, LO, LO

// Digit loads of gatherMulAccIFMA: X ← the group's eight words of the
// row at P, read in place (identity) or through the index vector Z23.
#define PLAINPREP
#define PLAINLOAD(P, X) VMOVDQU64.Z (P)(R11*1), K1, X
#define GATHERPREP \
	VMOVDQU64.Z (DX)(R11*1), K1, Z23; \
	VPMINUQ     Z24, Z23, Z23
#define GATHERLOAD(P, X) \
	KMOVW      K1, K2; \
	VPXORQ     X, X, X; \
	VPGATHERQQ (P)(Z23*8), K2, X

// GMALOOP is gatherMulAccIFMA's group loop with digit loads PREP/LOAD.
// Per group: zero the four lane sums, add each digit's products with
// both key rows, close both sums, store.
#define GMALOOP(PREP, LOAD, LOOP, ROW, DONE) \
LOOP: \
	CMPQ R12, $0; \
	JLE  DONE; \
	LANEMASK(R12, K1); \
	PREP; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	XORQ   R13, R13; \
ROW: \
	MOVQ        (SI)(R13*1), R14; \
	LOAD(R14, Z4); \
	MOVQ        (R8)(R13*1), AX; \
	VMOVDQU64.Z (AX)(R11*1), K1, Z5; \
	MOVQ        (R9)(R13*1), CX; \
	VMOVDQU64.Z (CX)(R11*1), K1, Z6; \
	VPMADD52LUQ Z5, Z4, Z0; \
	VPMADD52HUQ Z5, Z4, Z1; \
	VPMADD52LUQ Z6, Z4, Z2; \
	VPMADD52HUQ Z6, Z4, Z3; \
	ADDQ        $24, R13; \
	CMPQ        R13, BX; \
	JNE         ROW; \
	MONTCLOSE(Z0, Z1, Z7); \
	MONTCLOSE(Z2, Z3, Z8); \
	VMOVDQU64 Z0, K1, (DI)(R11*1); \
	VMOVDQU64 Z2, K1, (R10)(R11*1); \
	ADDQ      $64, R11; \
	SUBQ      $8, R12; \
	JMP       LOOP

// func gatherMulAccIFMA(d, b, a [][]uint64, perm []int, u, v []uint64, idxMax, q, qn, r40, r40s uint64)
TEXT ·gatherMulAccIFMA(SB), NOSPLIT, $0-184
	MOVQ d_base+0(FP), SI
	MOVQ d_len+8(FP), BX
	MOVQ b_base+24(FP), R8
	MOVQ a_base+48(FP), R9
	MOVQ perm_base+72(FP), DX
	MOVQ u_base+96(FP), DI
	MOVQ u_len+104(FP), R12
	MOVQ v_base+120(FP), R10
	VPBROADCASTQ idxMax+144(FP), Z24
	CLOSECONSTS(q+152(FP), qn+160(FP), r40+168(FP), r40s+176(FP))
	LEAQ (BX)(BX*2), BX
	SHLQ $3, BX           // β·24: the end of the row-header walk
	XORQ R11, R11         // byte offset of the group
	TESTQ DX, DX
	JNZ  gmaGather
	GMALOOP(PLAINPREP, PLAINLOAD, gmaPlainLoop, gmaPlainRow, gmaDone)
gmaGather:
	GMALOOP(GATHERPREP, GATHERLOAD, gmaGatherLoop, gmaGatherRow, gmaDone)
gmaDone:
	VZEROUPPER
	RET

// SEED sets LO ← seed[idx] for the group at byte offset OFF under mask
// K (K2 is the gather's scratch mask) and zeroes HI.
#define SEED(OFF, K, LO, HI) \
	VMOVDQU64.Z OFF(DX)(R11*1), K, Z23; \
	VPMINUQ     Z24, Z23, Z23; \
	KMOVW       K, K2; \
	VPXORQ      LO, LO, LO; \
	VPGATHERQQ  (R9)(Z23*8), K2, LO; \
	VPXORQ      HI, HI, HI

// func seededSumIFMA(dst []uint64, y [][]uint64, w, seed, idx []uint64, idxMax, q, qn, r40, r40s uint64)
//
// Two groups per iteration, masks K1 and K3, so two sums and two closes
// are in flight: each close is a long dependent chain.
TEXT ·seededSumIFMA(SB), NOSPLIT, $0-160
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R12
	MOVQ y_base+24(FP), SI
	MOVQ w_base+48(FP), R8
	MOVQ w_len+56(FP), BX
	MOVQ seed_base+72(FP), R9
	MOVQ idx_base+96(FP), DX
	VPBROADCASTQ idxMax+120(FP), Z24
	CLOSECONSTS(q+128(FP), qn+136(FP), r40+144(FP), r40s+152(FP))
	SHLQ $3, BX           // ℓ·8: the end of the w walk
	XORQ R11, R11         // byte offset of the first group

ssLoop:
	CMPQ R12, $0
	JLE  ssDone
	LANEMASK(R12, K1)
	LEAQ -8(R12), R10
	LANEMASK(R10, K3)
	SEED(0, K1, Z0, Z1)
	SEED(64, K3, Z2, Z3)
	XORQ R13, R13         // i·8
	XORQ R14, R14         // i·24

ssRow:
	MOVQ         (SI)(R14*1), AX
	VMOVDQU64.Z  (AX)(R11*1), K1, Z4
	VMOVDQU64.Z  64(AX)(R11*1), K3, Z5
	VPBROADCASTQ (R8)(R13*1), Z6
	VPMADD52LUQ  Z6, Z4, Z0
	VPMADD52HUQ  Z6, Z4, Z1
	VPMADD52LUQ  Z6, Z5, Z2
	VPMADD52HUQ  Z6, Z5, Z3
	ADDQ         $8, R13
	ADDQ         $24, R14
	CMPQ         R13, BX
	JNE          ssRow
	MONTCLOSE(Z0, Z1, Z7)
	MONTCLOSE(Z2, Z3, Z8)
	VMOVDQU64 Z0, K1, (DI)(R11*1)
	VMOVDQU64 Z2, K3, 64(DI)(R11*1)
	ADDQ      $128, R11
	SUBQ      $16, R12
	JMP       ssLoop

ssDone:
	VZEROUPPER
	RET
