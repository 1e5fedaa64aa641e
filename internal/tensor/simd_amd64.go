package tensor

// Implemented in simd_amd64.s.

//go:noescape
func axpy4AVX2(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64)

//go:noescape
func dot4x4AVX2(g, p0, p1, p2, p3 []float64, s *[16]float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// register state across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
