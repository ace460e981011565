// Macros shared by the AVX-512 IFMA kernels (ntt_amd64.s,
// innerproduct_amd64.s, pointwise_amd64.s). Every kernel keeps
//
//	Z31 = q, Z29 = 2^52 − 1, Z28 = 2^52 − q
//
// resident; REDC52 also reads Z27 = −q⁻¹ mod 2^52.

// LANEMASK sets mask K to the lanes of a group with REM words left: all
// eight for REM ≥ 8, the low REM for 0 < REM < 8, none for REM ≤ 0.
// Clobbers AX and CX.
#define LANEMASK(REM, K) \
	MOVQ    REM, CX; \
	XORL    AX, AX; \
	CMPQ    CX, AX; \
	CMOVQLT AX, CX; \
	MOVQ    $8, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVL    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	KMOVW   AX, K

// MULLAZY sets OUT ← A·W mod q in [0, 2q) for A < 2^52, with
// WS = ⌊W·2^52/q⌋. T is clobbered; OUT and T must differ from A.
#define MULLAZY(A, W, WS, OUT, T) \
	VPXORQ      T, T, T; \
	VPMADD52HUQ WS, A, T; \
	VPXORQ      OUT, OUT, OUT; \
	VPMADD52LUQ W, A, OUT; \
	VPMADD52LUQ Z28, T, OUT; \
	VPANDQ      Z29, OUT, OUT

// FOLD sets X ← min(X, X − B), one conditional subtraction of B.
#define FOLD(X, B, T) \
	VPSUBQ  B, X, T; \
	VPMINUQ T, X, X

// REDC52 sets HI ← HI + (LO + m·q)/2^52 ≡ (HI·2^52 + LO)·2^-52 (mod q)
// for LO < 2^63, with m = lo52(LO)·(−q⁻¹) mod 2^52: lo52(LO) + lo52(m·q)
// is 0 when lo52(LO) = 0 and 2^52 otherwise, so the quotient is
// hi52(m·q) + ⌈LO/2^52⌉, the carry taken as (LO + 2^52 − 1) >> 52.
// Clobbers LO and T.
#define REDC52(LO, HI, T) \
	VPXORQ      T, T, T; \
	VPMADD52LUQ Z27, LO, T; \
	VPMADD52HUQ Z31, T, HI; \
	VPADDQ      Z29, LO, LO; \
	VPSRLQ      $52, LO, LO; \
	VPADDQ      LO, HI, HI
