package simd

var hasAVX512F, hasIFMA = detect()

func detect() (f, ifma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 { // OSXSAVE: XGETBV is available
		return false, false
	}
	// XCR0 bits 1, 2 (SSE, AVX) and 5, 6, 7 (opmask, ZMM0–15 upper
	// halves, ZMM16–31): the OS saves the whole AVX-512 state.
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false, false
	}
	// CPUID.7.0:EBX bits 16, 17 and 21: AVX512F, AVX512DQ, AVX512IFMA.
	_, ebx7, _, _ := cpuid(7, 0)
	const fBit, dq, ifmaBit = 1 << 16, 1 << 17, 1 << 21
	f = ebx7&fBit != 0
	return f, f && ebx7&(dq|ifmaBit) == dq|ifmaBit
}

// Implemented in cpu_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
