package tensor

// Implemented in simd_amd64.s.

//go:noescape
func axpy4AVX2(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64)

//go:noescape
func dot4x4AVX2(g, p0, p1, p2, p3 []float64, s *[16]float64, w, gap int)

//go:noescape
func dwTileAVX2(g, x []float64, offs []int, c []float64, ldc, w, gap int)

//go:noescape
func convRowAVX2(x []float64, offs []int, wpk []float64, o0, o1, o2, o3 []float64, w, n4, m, nm, reps int)

//go:noescape
func dwTileAVX512(g, x []float64, offs []int, c []float64, ldc, w, gap, nc int)

//go:noescape
func convPlaneAVX512(x []float64, offs []int, wts, dst []float64, wstride, dstride, nc, h, w, wp, n4, m, nm, reps int)

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

// hasAVX512 reports whether the CPU implements AVX-512F and the OS saves
// the opmask and ZMM register state across context switches. It assumes
// hasAVX2, which checked CPUID leaf 7 exists and OSXSAVE is set.
func hasAVX512() bool {
	if xgetbv0()&0xE6 != 0xE6 { // XMM, YMM, opmask, ZMM0-15 high, ZMM16-31
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}
