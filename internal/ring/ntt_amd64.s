#include "textflag.h"
#include "ifma_amd64.h"

// AVX-512 IFMA NTT kernels; the arithmetic and its bounds are described
// in ntt_amd64.go. Every kernel keeps these constants resident:
//
//	Z31 = q, Z30 = 2q, Z29 = 2^52 − 1, Z28 = 2^52 − q
//
// and every Shoup companion is read from the 64-bit table and shifted
// right by 12. MULLAZY and FOLD are in ifma_amd64.h.
//
// Every kernel has two loops built from the same macros and picks one
// per call from bit 50 of q: below 2^50 the products are MULLAZY, and
// for 2^50 ≤ q < 2^51 they are MULWIDE, which first folds the
// multiplicand below 2q. Folding below 2^50 too would make the 45-bit
// transforms 12–34 % slower (docs/PERF.md "Wide limbs").

// CONSTS loads Z28–Z31 from the modulus in AX; clobbers DX.
#define CONSTS \
	VPBROADCASTQ AX, Z31; \
	VPADDQ       Z31, Z31, Z30; \
	MOVQ         $0x000FFFFFFFFFFFFF, DX; \
	VPBROADCASTQ DX, Z29; \
	INCQ         DX; \
	SUBQ         AX, DX; \
	VPBROADCASTQ DX, Z28

// MULWIDE is MULLAZY for a lazy A < 4q that can reach 2^52 (q ≥ 2^50):
// A is folded below 2q < 2^52 in place first.
#define MULWIDE(A, W, WS, OUT, T) \
	FOLD(A, Z30, T); \
	MULLAZY(A, W, WS, OUT, T)

// FWDBF is the Cooley–Tukey butterfly on X, Y < 4q with products MUL:
// u = X folded below 2q, v = Y·W lazily; X ← u + v, Y ← u + 2q − v,
// both < 4q.
#define FWDBF(MUL, X, Y, W, WS, T0, T1) \
	FOLD(X, Z30, T0); \
	MUL(Y, W, WS, T1, T0); \
	VPADDQ Z30, X, Y; \
	VPADDQ T1, X, X; \
	VPSUBQ T1, Y, Y

// INVBF is the Gentleman–Sande butterfly on X, Y < 2q with products
// MUL: X ← X + Y folded below 2q, Y ← (X + 2q − Y)·W lazily, below 2q.
#define INVBF(MUL, X, Y, W, WS, T0, T1) \
	VPADDQ Z30, X, T1; \
	VPSUBQ Y, T1, T1; \
	VPADDQ Y, X, X; \
	FOLD(X, Z30, T0); \
	MUL(T1, W, WS, Y, T0)

// STAGE is the loop of fwdStageIFMA and invStageIFMA: butterfly BF
// with products MUL, labels SEG, BLOCK and LOOP. The outer loop walks
// the segment offsets R12 = j·stride (R13 bytes apart, below the
// half-width CX); for each it runs every block, whose segment is DX
// bytes at DI + 2i·CX + R12 paired with the one CX bytes above it. A row
// stage has one segment, so its blocks run as a plain block loop.
#define STAGE(BF, MUL, SEG, BLOCK, LOOP) \
	XORQ R12, R12; \
SEG: \
	LEAQ (DI)(R12*1), R11; \
	MOVQ w_base+48(FP), SI; \
	MOVQ ws_base+72(FP), R8; \
	MOVQ w_len+56(FP), BX; \
BLOCK: \
	VPBROADCASTQ (SI), Z27; \
	VPBROADCASTQ (R8), Z26; \
	VPSRLQ       $12, Z26, Z26; \
	LEAQ         (R11)(CX*1), R9; \
	XORQ         R10, R10; \
LOOP: \
	VMOVDQU64 (R11)(R10*1), Z0; \
	VMOVDQU64 (R9)(R10*1), Z1; \
	BF(MUL, Z0, Z1, Z27, Z26, Z2, Z3); \
	VMOVDQU64 Z0, (R11)(R10*1); \
	VMOVDQU64 Z1, (R9)(R10*1); \
	ADDQ      $64, R10; \
	CMPQ      R10, DX; \
	JB        LOOP; \
	LEAQ (R11)(CX*2), R11; \
	ADDQ $8, SI; \
	ADDQ $8, R8; \
	DECQ BX; \
	JNZ  BLOCK; \
	ADDQ R13, R12; \
	CMPQ R12, CX; \
	JB   SEG

// STAGEARGS loads the arguments of fwdStageIFMA and invStageIFMA
// other than the twiddles, which STAGE reloads per segment, and the
// constants, and converts t, bw and stride to bytes.
#define STAGEARGS \
	MOVQ x_base+0(FP), DI; \
	MOVQ w_len+56(FP), BX; \
	MOVQ q+96(FP), AX; \
	CONSTS; \
	MOVQ t+24(FP), CX; \
	MOVQ bw+32(FP), DX; \
	MOVQ stride+40(FP), R13; \
	SHLQ $3, CX; \
	SHLQ $3, DX; \
	SHLQ $3, R13

// Lane permutations of the register-resident stages. A 16-word group
// x0…x15 is held as two vectors X, Y whose lanes pair up as one stage's
// butterflies; the tables place each stage's twiddles on those lanes
// and move the group between the layouts.
//
// Forward:  stride 4: X = x0-3 x8-11           Y = x4-7 x12-15
//           stride 2: X = x0 x1 x8 x9 x4 x5 x12 x13, Y = X + 2
//           stride 1: X = x0 x2 x8 x10 x4 x6 x12 x14, Y = X + 1
// Inverse:  stride 1: X = x0 x2 … x14 (even),        Y = X + 1
//           stride 2: X = x0 x1 x4 x5 x8 x9 x12 x13, Y = X + 2
//           stride 4: X = x0 x1 x8 x9 x2 x3 x10 x11, Y = X + 4
DATA fwdTw4<>+0(SB)/8, $0
DATA fwdTw4<>+8(SB)/8, $0
DATA fwdTw4<>+16(SB)/8, $0
DATA fwdTw4<>+24(SB)/8, $0
DATA fwdTw4<>+32(SB)/8, $1
DATA fwdTw4<>+40(SB)/8, $1
DATA fwdTw4<>+48(SB)/8, $1
DATA fwdTw4<>+56(SB)/8, $1
GLOBL fwdTw4<>(SB), RODATA|NOPTR, $64

DATA fwdTw2<>+0(SB)/8, $0
DATA fwdTw2<>+8(SB)/8, $0
DATA fwdTw2<>+16(SB)/8, $2
DATA fwdTw2<>+24(SB)/8, $2
DATA fwdTw2<>+32(SB)/8, $1
DATA fwdTw2<>+40(SB)/8, $1
DATA fwdTw2<>+48(SB)/8, $3
DATA fwdTw2<>+56(SB)/8, $3
GLOBL fwdTw2<>(SB), RODATA|NOPTR, $64

DATA fwdTw1<>+0(SB)/8, $0
DATA fwdTw1<>+8(SB)/8, $1
DATA fwdTw1<>+16(SB)/8, $4
DATA fwdTw1<>+24(SB)/8, $5
DATA fwdTw1<>+32(SB)/8, $2
DATA fwdTw1<>+40(SB)/8, $3
DATA fwdTw1<>+48(SB)/8, $6
DATA fwdTw1<>+56(SB)/8, $7
GLOBL fwdTw1<>(SB), RODATA|NOPTR, $64

// fwdOut0/1 interleave the stride-1 layout (X: indices 0-7, Y: 8-15)
// back to x0-7 and x8-15.
DATA fwdOut0<>+0(SB)/8, $0
DATA fwdOut0<>+8(SB)/8, $8
DATA fwdOut0<>+16(SB)/8, $1
DATA fwdOut0<>+24(SB)/8, $9
DATA fwdOut0<>+32(SB)/8, $4
DATA fwdOut0<>+40(SB)/8, $12
DATA fwdOut0<>+48(SB)/8, $5
DATA fwdOut0<>+56(SB)/8, $13
GLOBL fwdOut0<>(SB), RODATA|NOPTR, $64

DATA fwdOut1<>+0(SB)/8, $2
DATA fwdOut1<>+8(SB)/8, $10
DATA fwdOut1<>+16(SB)/8, $3
DATA fwdOut1<>+24(SB)/8, $11
DATA fwdOut1<>+32(SB)/8, $6
DATA fwdOut1<>+40(SB)/8, $14
DATA fwdOut1<>+48(SB)/8, $7
DATA fwdOut1<>+56(SB)/8, $15
GLOBL fwdOut1<>(SB), RODATA|NOPTR, $64

// invEven/invOdd split x0-7 (indices 0-7) and x8-15 (8-15).
DATA invEven<>+0(SB)/8, $0
DATA invEven<>+8(SB)/8, $2
DATA invEven<>+16(SB)/8, $4
DATA invEven<>+24(SB)/8, $6
DATA invEven<>+32(SB)/8, $8
DATA invEven<>+40(SB)/8, $10
DATA invEven<>+48(SB)/8, $12
DATA invEven<>+56(SB)/8, $14
GLOBL invEven<>(SB), RODATA|NOPTR, $64

DATA invOdd<>+0(SB)/8, $1
DATA invOdd<>+8(SB)/8, $3
DATA invOdd<>+16(SB)/8, $5
DATA invOdd<>+24(SB)/8, $7
DATA invOdd<>+32(SB)/8, $9
DATA invOdd<>+40(SB)/8, $11
DATA invOdd<>+48(SB)/8, $13
DATA invOdd<>+56(SB)/8, $15
GLOBL invOdd<>(SB), RODATA|NOPTR, $64

DATA invTw2<>+0(SB)/8, $0
DATA invTw2<>+8(SB)/8, $0
DATA invTw2<>+16(SB)/8, $1
DATA invTw2<>+24(SB)/8, $1
DATA invTw2<>+32(SB)/8, $2
DATA invTw2<>+40(SB)/8, $2
DATA invTw2<>+48(SB)/8, $3
DATA invTw2<>+56(SB)/8, $3
GLOBL invTw2<>(SB), RODATA|NOPTR, $64

DATA invTw4<>+0(SB)/8, $0
DATA invTw4<>+8(SB)/8, $0
DATA invTw4<>+16(SB)/8, $1
DATA invTw4<>+24(SB)/8, $1
DATA invTw4<>+32(SB)/8, $0
DATA invTw4<>+40(SB)/8, $0
DATA invTw4<>+48(SB)/8, $1
DATA invTw4<>+56(SB)/8, $1
GLOBL invTw4<>(SB), RODATA|NOPTR, $64

// func fwdStageIFMA(x []uint64, t, bw, stride int, w, ws []uint64, q uint64)
TEXT ·fwdStageIFMA(SB), NOSPLIT, $0-104
	STAGEARGS
	TESTQ BX, BX
	JZ   fwdStageDone
	BTQ  $50, AX
	JCS  fwdStageWide
	STAGE(FWDBF, MULLAZY, fwdStageSeg, fwdStageBlock, fwdStageLoop)
	JMP  fwdStageDone

fwdStageWide:
	STAGE(FWDBF, MULWIDE, fwdStageWideSeg, fwdStageWideBlock, fwdStageWideLoop)

fwdStageDone:
	VZEROUPPER
	RET

// FWDTAIL is fwdTailIFMA's group loop with products MUL, label LOOP.
#define FWDTAIL(MUL, LOOP) \
LOOP: \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 64(DI), Z1; \
	/* Stride 4: twiddles w4[0] ×4, w4[1] ×4. */ \
	VSHUFI64X2 $0x44, Z1, Z0, Z2; \
	VSHUFI64X2 $0xEE, Z1, Z0, Z3; \
	VMOVDQU    (SI), X4; \
	VPERMQ     Z4, Z20, Z5; \
	VMOVDQU    (R8), X6; \
	VPERMQ     Z6, Z20, Z6; \
	VPSRLQ     $12, Z6, Z6; \
	FWDBF(MUL, Z2, Z3, Z5, Z6, Z7, Z8); \
	/* Stride 2. */ \
	VSHUFI64X2 $0x88, Z3, Z2, Z0; \
	VSHUFI64X2 $0xDD, Z3, Z2, Z1; \
	VMOVDQU    (R9), Y4; \
	VPERMQ     Z4, Z21, Z5; \
	VMOVDQU    (R10), Y6; \
	VPERMQ     Z6, Z21, Z6; \
	VPSRLQ     $12, Z6, Z6; \
	FWDBF(MUL, Z0, Z1, Z5, Z6, Z7, Z8); \
	/* Stride 1, then the exact reduction < 4q → < q. */ \
	VPUNPCKLQDQ Z1, Z0, Z2; \
	VPUNPCKHQDQ Z1, Z0, Z3; \
	VPERMQ      (R11), Z22, Z5; \
	VPSRLQ      $12, (R12), Z6; \
	VPERMQ      Z6, Z22, Z6; \
	FWDBF(MUL, Z2, Z3, Z5, Z6, Z7, Z8); \
	FOLD(Z2, Z30, Z7); \
	FOLD(Z3, Z30, Z8); \
	FOLD(Z2, Z31, Z7); \
	FOLD(Z3, Z31, Z8); \
	VMOVDQA64 Z2, Z0; \
	VPERMT2Q  Z3, Z23, Z0; \
	VPERMT2Q  Z3, Z24, Z2; \
	VMOVDQU64 Z0, (DI); \
	VMOVDQU64 Z2, 64(DI); \
	ADDQ $128, DI; \
	ADDQ $16, SI; \
	ADDQ $16, R8; \
	ADDQ $32, R9; \
	ADDQ $32, R10; \
	ADDQ $64, R11; \
	ADDQ $64, R12; \
	DECQ BX; \
	JNZ  LOOP

// func fwdTailIFMA(x, w4, ws4, w2, ws2, w1, ws1 []uint64, q uint64)
TEXT ·fwdTailIFMA(SB), NOSPLIT, $0-176
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), BX
	MOVQ w4_base+24(FP), SI
	MOVQ ws4_base+48(FP), R8
	MOVQ w2_base+72(FP), R9
	MOVQ ws2_base+96(FP), R10
	MOVQ w1_base+120(FP), R11
	MOVQ ws1_base+144(FP), R12
	MOVQ q+168(FP), AX
	CONSTS
	VMOVDQU64 fwdTw4<>(SB), Z20
	VMOVDQU64 fwdTw2<>(SB), Z21
	VMOVDQU64 fwdTw1<>(SB), Z22
	VMOVDQU64 fwdOut0<>(SB), Z23
	VMOVDQU64 fwdOut1<>(SB), Z24
	SHRQ $4, BX           // 16-word groups
	TESTQ BX, BX
	JZ   fwdTailDone
	BTQ  $50, AX
	JCS  fwdTailWide
	FWDTAIL(MULLAZY, fwdTailLoop)
	JMP  fwdTailDone
	FWDTAIL(MULWIDE, fwdTailWide)

fwdTailDone:
	VZEROUPPER
	RET

// INVHEAD is invHeadIFMA's group loop with products MUL, label LOOP.
// Group g is read from src (R13) and written to dst (DI).
#define INVHEAD(MUL, LOOP) \
LOOP: \
	VMOVDQU64 (R13), Z0; \
	VMOVDQU64 64(R13), Z1; \
	FOLD(Z0, Z30, Z7); \
	FOLD(Z1, Z30, Z8); \
	/* Stride 1: twiddles w1[0..8) in order. */ \
	VMOVDQA64 Z0, Z2; \
	VPERMT2Q  Z1, Z20, Z2; \
	VPERMT2Q  Z1, Z21, Z0; \
	VMOVDQU64 (SI), Z5; \
	VPSRLQ    $12, (R8), Z6; \
	INVBF(MUL, Z2, Z0, Z5, Z6, Z7, Z8); \
	/* Stride 2. */ \
	VPUNPCKLQDQ Z0, Z2, Z3; \
	VPUNPCKHQDQ Z0, Z2, Z4; \
	VMOVDQU     (R9), Y5; \
	VPERMQ      Z5, Z22, Z5; \
	VMOVDQU     (R10), Y6; \
	VPERMQ      Z6, Z22, Z6; \
	VPSRLQ      $12, Z6, Z6; \
	INVBF(MUL, Z3, Z4, Z5, Z6, Z7, Z8); \
	/* Stride 4. */ \
	VSHUFI64X2 $0x88, Z4, Z3, Z0; \
	VSHUFI64X2 $0xDD, Z4, Z3, Z1; \
	VMOVDQU    (R11), X5; \
	VPERMQ     Z5, Z23, Z5; \
	VMOVDQU    (R12), X6; \
	VPERMQ     Z6, Z23, Z6; \
	VPSRLQ     $12, Z6, Z6; \
	INVBF(MUL, Z0, Z1, Z5, Z6, Z7, Z8); \
	VSHUFI64X2 $0x88, Z1, Z0, Z2; \
	VSHUFI64X2 $0xDD, Z1, Z0, Z3; \
	VMOVDQU64  Z2, (DI); \
	VMOVDQU64  Z3, 64(DI); \
	ADDQ $128, DI; \
	ADDQ $128, R13; \
	ADDQ $64, SI; \
	ADDQ $64, R8; \
	ADDQ $32, R9; \
	ADDQ $32, R10; \
	ADDQ $16, R11; \
	ADDQ $16, R12; \
	DECQ BX; \
	JNZ  LOOP

// func invHeadIFMA(dst, src, w1, ws1, w2, ws2, w4, ws4 []uint64, q uint64)
TEXT ·invHeadIFMA(SB), NOSPLIT, $0-200
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ src_base+24(FP), R13
	MOVQ w1_base+48(FP), SI
	MOVQ ws1_base+72(FP), R8
	MOVQ w2_base+96(FP), R9
	MOVQ ws2_base+120(FP), R10
	MOVQ w4_base+144(FP), R11
	MOVQ ws4_base+168(FP), R12
	MOVQ q+192(FP), AX
	CONSTS
	VMOVDQU64 invEven<>(SB), Z20
	VMOVDQU64 invOdd<>(SB), Z21
	VMOVDQU64 invTw2<>(SB), Z22
	VMOVDQU64 invTw4<>(SB), Z23
	SHRQ $4, BX
	TESTQ BX, BX
	JZ   invHeadDone
	BTQ  $50, AX
	JCS  invHeadWide
	INVHEAD(MULLAZY, invHeadLoop)
	JMP  invHeadDone
	INVHEAD(MULWIDE, invHeadWide)

invHeadDone:
	VZEROUPPER
	RET

// func invStageIFMA(x []uint64, t, bw, stride int, w, ws []uint64, q uint64)
TEXT ·invStageIFMA(SB), NOSPLIT, $0-104
	STAGEARGS
	TESTQ BX, BX
	JZ   invStageDone
	BTQ  $50, AX
	JCS  invStageWide
	STAGE(INVBF, MULLAZY, invStageSeg, invStageBlock, invStageLoop)
	JMP  invStageDone

invStageWide:
	STAGE(INVBF, MULWIDE, invStageWideSeg, invStageWideBlock, invStageWideLoop)

invStageDone:
	VZEROUPPER
	RET

// INVLAST is invLastIFMA's segment loop with products MUL, labels SEG
// and LOOP: both products take a lazy sum or difference below 4q.
#define INVLAST(MUL, SEG, LOOP) \
SEG: \
	LEAQ (R11)(CX*1), R9; \
	XORQ R10, R10; \
LOOP: \
	VMOVDQU64 (R11)(R10*1), Z0; \
	VMOVDQU64 (R9)(R10*1), Z1; \
	VPADDQ    Z1, Z0, Z2; \
	VPADDQ    Z30, Z0, Z3; \
	VPSUBQ    Z1, Z3, Z3; \
	MUL(Z2, Z27, Z26, Z0, Z4); \
	MUL(Z3, Z25, Z24, Z1, Z5); \
	FOLD(Z0, Z31, Z4); \
	FOLD(Z1, Z31, Z5); \
	VMOVDQU64 Z0, (R11)(R10*1); \
	VMOVDQU64 Z1, (R9)(R10*1); \
	ADDQ      $64, R10; \
	CMPQ      R10, DX; \
	JB        LOOP; \
	ADDQ R13, R11; \
	CMPQ R11, R12; \
	JB   SEG

// func invLastIFMA(x []uint64, t, bw, stride int, n, nShoup, nw, nwShoup, q uint64)
TEXT ·invLastIFMA(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), R11
	MOVQ q+80(FP), AX
	CONSTS
	VPBROADCASTQ n+48(FP), Z27
	VPBROADCASTQ nShoup+56(FP), Z26
	VPSRLQ       $12, Z26, Z26
	VPBROADCASTQ nw+64(FP), Z25
	VPBROADCASTQ nwShoup+72(FP), Z24
	VPSRLQ       $12, Z24, Z24
	MOVQ t+24(FP), CX
	MOVQ bw+32(FP), DX
	MOVQ stride+40(FP), R13
	SHLQ $3, CX
	SHLQ $3, DX
	SHLQ $3, R13
	LEAQ (R11)(CX*1), R12
	TESTQ CX, CX
	JZ   invLastDone
	BTQ  $50, AX
	JCS  invLastWide
	INVLAST(MULLAZY, invLastSeg, invLastLoop)
	JMP  invLastDone
	INVLAST(MULWIDE, invLastWide, invLastWideLoop)

invLastDone:
	VZEROUPPER
	RET
