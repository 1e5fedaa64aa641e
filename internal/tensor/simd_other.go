//go:build !amd64

package tensor

// Without amd64 assembly the Go loops in simd.go are the only bodies.

func hasAVX2() bool { return false }

func hasAVX512() bool { return false }

func axpy4AVX2(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func dot4x4AVX2(g, p0, p1, p2, p3 []float64, s *[16]float64, w, gap int) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func dwTileAVX2(g, x []float64, offs []int, c []float64, ldc, w, gap int) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func convRowAVX2(x []float64, offs []int, wpk []float64, o0, o1, o2, o3 []float64, w, n4, m, nm, reps int) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func dwTileAVX512(g, x []float64, offs []int, c []float64, ldc, w, gap, nc int) {
	panic("tensor: AVX-512 kernel on a non-amd64 build")
}

func convPlaneAVX512(x []float64, offs []int, wts, dst []float64, wstride, dstride, nc, h, w, wp, n4, m, nm, reps int) {
	panic("tensor: AVX-512 kernel on a non-amd64 build")
}
