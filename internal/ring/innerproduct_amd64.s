#include "textflag.h"
#include "ifma_amd64.h"

// AVX-512 IFMA multiply-accumulate kernels: the key-switch inner product
// over up to MaxLanes lanes (gatherMulAccIFMA) and the seeded sum of a basis extension's second
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

// LANE adds one lane's products for the current digit: X ← its digit
// row (the header at OFF(SI)), then X times the key words b (Z16) and a
// (Z17) into the lane's four sums.
#define LANE(LOAD, OFF, X, ULO, UHI, VLO, VHI) \
	MOVQ        OFF(SI), R14; \
	LOAD(R14, X); \
	VPMADD52LUQ Z16, X, ULO; \
	VPMADD52HUQ Z16, X, UHI; \
	VPMADD52LUQ Z17, X, VLO; \
	VPMADD52HUQ Z17, X, VHI

// Lane k keeps its sums in Z(4k) … Z(4k+3) and loads its digit into
// Z(18+k); its digit header sits k·24 bytes into the digit's K headers,
// its output headers k·24 bytes into u's and v's.
#define LANES1(LOAD) LANE(LOAD, 0, Z18, Z0, Z1, Z2, Z3)
#define LANES2(LOAD) LANES1(LOAD); LANE(LOAD, 24, Z19, Z4, Z5, Z6, Z7)
#define LANES3(LOAD) LANES2(LOAD); LANE(LOAD, 48, Z20, Z8, Z9, Z10, Z11)
#define LANES4(LOAD) LANES3(LOAD); LANE(LOAD, 72, Z21, Z12, Z13, Z14, Z15)

#define ZEROSUMS(A, B, C, D) \
	VPXORQ A, A, A; \
	VPXORQ B, B, B; \
	VPXORQ C, C, C; \
	VPXORQ D, D, D
#define ZERO1 ZEROSUMS(Z0, Z1, Z2, Z3)
#define ZERO2 ZERO1; ZEROSUMS(Z4, Z5, Z6, Z7)
#define ZERO3 ZERO2; ZEROSUMS(Z8, Z9, Z10, Z11)
#define ZERO4 ZERO3; ZEROSUMS(Z12, Z13, Z14, Z15)

// CLOSESTORE closes one lane's two sums and stores them into its u and v
// rows (headers at OFF(DI) and OFF(R10)).
#define CLOSESTORE(OFF, ULO, UHI, VLO, VHI) \
	MONTCLOSE(ULO, UHI, Z22); \
	MONTCLOSE(VLO, VHI, Z30); \
	MOVQ      OFF(DI), AX; \
	VMOVDQU64 ULO, K1, (AX)(R11*1); \
	MOVQ      OFF(R10), AX; \
	VMOVDQU64 VLO, K1, (AX)(R11*1)
#define STORE1 CLOSESTORE(0, Z0, Z1, Z2, Z3)
#define STORE2 STORE1; CLOSESTORE(24, Z4, Z5, Z6, Z7)
#define STORE3 STORE2; CLOSESTORE(48, Z8, Z9, Z10, Z11)
#define STORE4 STORE3; CLOSESTORE(72, Z12, Z13, Z14, Z15)

// GMALOOP is gatherMulAccIFMA's group loop for one lane count (ZERO,
// LANES, STORE; STEP = lanes·24, the digit headers per row) with digit
// loads PREP/LOAD. Per group: zero the lanes' sums; per digit load both
// key rows once and add every lane's products with them; close every
// lane's sums and store them.
#define GMALOOP(PREP, LOAD, ZERO, LANES, STORE, STEP, LOOP, ROW, DONE) \
LOOP: \
	CMPQ R12, $0; \
	JLE  DONE; \
	LANEMASK(R12, K1); \
	PREP; \
	ZERO; \
	MOVQ d_base+0(FP), SI; \
	XORQ R13, R13; \
ROW: \
	MOVQ        (R8)(R13*1), AX; \
	VMOVDQU64.Z (AX)(R11*1), K1, Z16; \
	MOVQ        (R9)(R13*1), CX; \
	VMOVDQU64.Z (CX)(R11*1), K1, Z17; \
	LANES(LOAD); \
	ADDQ        $STEP, SI; \
	ADDQ        $24, R13; \
	CMPQ        R13, BX; \
	JNE         ROW; \
	STORE; \
	ADDQ      $64, R11; \
	SUBQ      $8, R12; \
	JMP       LOOP

// func gatherMulAccIFMA(d, b, a [][]uint64, perm []int, u, v [][]uint64, n, idxMax, q, qn, r40, r40s uint64)
//
// One loop per lane count and digit load, picked once per call.
TEXT ·gatherMulAccIFMA(SB), NOSPLIT, $0-192
	MOVQ b_base+24(FP), R8
	MOVQ b_len+32(FP), BX
	MOVQ a_base+48(FP), R9
	MOVQ perm_base+72(FP), DX
	MOVQ u_base+96(FP), DI
	MOVQ v_base+120(FP), R10
	MOVQ n+144(FP), R12
	VPBROADCASTQ idxMax+152(FP), Z24
	CLOSECONSTS(q+160(FP), qn+168(FP), r40+176(FP), r40s+184(FP))
	LEAQ (BX)(BX*2), BX
	SHLQ $3, BX           // β·24: the end of the key-row header walk
	XORQ R11, R11         // byte offset of the group
	MOVQ u_len+104(FP), CX // lanes
	TESTQ DX, DX
	JNZ  gmaGather
	CMPQ CX, $2
	JLT  gmaPlain1
	JEQ  gmaPlain2
	CMPQ CX, $3
	JEQ  gmaPlain3
	GMALOOP(PLAINPREP, PLAINLOAD, ZERO4, LANES4, STORE4, 96, gmaPlain4, gmaPlainRow4, gmaDone)
	GMALOOP(PLAINPREP, PLAINLOAD, ZERO3, LANES3, STORE3, 72, gmaPlain3, gmaPlainRow3, gmaDone)
	GMALOOP(PLAINPREP, PLAINLOAD, ZERO2, LANES2, STORE2, 48, gmaPlain2, gmaPlainRow2, gmaDone)
	GMALOOP(PLAINPREP, PLAINLOAD, ZERO1, LANES1, STORE1, 24, gmaPlain1, gmaPlainRow1, gmaDone)
gmaGather:
	CMPQ CX, $2
	JLT  gmaGather1
	JEQ  gmaGather2
	CMPQ CX, $3
	JEQ  gmaGather3
	GMALOOP(GATHERPREP, GATHERLOAD, ZERO4, LANES4, STORE4, 96, gmaGather4, gmaGatherRow4, gmaDone)
	GMALOOP(GATHERPREP, GATHERLOAD, ZERO3, LANES3, STORE3, 72, gmaGather3, gmaGatherRow3, gmaDone)
	GMALOOP(GATHERPREP, GATHERLOAD, ZERO2, LANES2, STORE2, 48, gmaGather2, gmaGatherRow2, gmaDone)
	GMALOOP(GATHERPREP, GATHERLOAD, ZERO1, LANES1, STORE1, 24, gmaGather1, gmaGatherRow1, gmaDone)
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
