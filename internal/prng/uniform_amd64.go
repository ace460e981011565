package prng

// uniformAVX512 is UniformSlice's reduction at vector width
// (uniform_amd64.s): it reads the words of in eight at a time, len(in) a
// multiple of 8, drops those below limit and writes the others modulo q
// to out, in order, and returns how many it wrote. out has room for
// len(in) words; qinv is 1/float64(q). The caller checks vectorUniform.
//
//go:noescape
func uniformAVX512(out, in []uint64, q, limit uint64, qinv float64) int
