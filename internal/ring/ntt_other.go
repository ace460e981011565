//go:build !amd64

package ring

// The vector kernels are amd64-only: elsewhere every SubRing runs the
// scalar Go kernels, and the methods below are never reached.

const noVectorKernel = "ring: no vector NTT kernel on this architecture"

func ifmaUsable(uint64) bool { return false }

func (s *SubRing) nttRowIFMA([]uint64, int)           { panic(noVectorKernel) }
func (s *SubRing) inttRowIFMA([]uint64, int, bool)    { panic(noVectorKernel) }
func (s *SubRing) nttColumnsIFMA([]uint64, int, int)  { panic(noVectorKernel) }
func (s *SubRing) inttColumnsIFMA([]uint64, int, int) { panic(noVectorKernel) }
