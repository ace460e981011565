//go:build !amd64

package ring

// The vector kernels are amd64-only: elsewhere every SubRing and every
// VectorMont runs the scalar Go kernels, and the functions below are
// never reached.

const noVectorKernel = "ring: no vector kernel on this architecture"

func (s *SubRing) nttRowIFMA([]uint64, int)                 { panic(noVectorKernel) }
func (s *SubRing) inttRowIFMA(_, _ []uint64, _ int, _ bool) { panic(noVectorKernel) }
func (s *SubRing) nttColumnsIFMA([]uint64, int, int, int)   { panic(noVectorKernel) }
func (s *SubRing) inttColumnsIFMA([]uint64, int, int, int)  { panic(noVectorKernel) }

func gatherMulAccIFMA(_, _, _ [][]uint64, _ []int, _, _ [][]uint64, _, _, _, _, _, _ uint64) {
	panic(noVectorKernel)
}

func seededSumIFMA([]uint64, [][]uint64, []uint64, []uint64, []uint64, uint64, uint64, uint64, uint64, uint64) {
	panic(noVectorKernel)
}

func tensorIFMA(_, _, _, _, _, _, _ []uint64, _, _, _, _ uint64) { panic(noVectorKernel) }
func tensorSquareIFMA(_, _, _, _, _ []uint64, _, _, _, _ uint64) { panic(noVectorKernel) }
func mulScalarAddIFMA(_, _ []uint64, _ []int, _, _, _, _ uint64) { panic(noVectorKernel) }
func subMulIFMA(_, _, _ []uint64, _, _, _ uint64)                { panic(noVectorKernel) }
func mulScalarIFMA(_, _ []uint64, _, _, _ uint64)                { panic(noVectorKernel) }
func addIFMA(_, _, _ []uint64, _ uint64)                         { panic(noVectorKernel) }
func subIFMA(_, _, _ []uint64, _ uint64)                         { panic(noVectorKernel) }
func reduceAddIFMA(_, _ []uint64, _, _, _ uint64)                { panic(noVectorKernel) }
func scaleEstimateIFMA(_ [][]uint64, _ int, _ [][]uint64, _, _ []uint64) {
	panic(noVectorKernel)
}
