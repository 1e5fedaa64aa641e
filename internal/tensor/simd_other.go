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

func reluAVX2(dst, x []float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func reluMaskAVX2(dst, g, out []float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func addAVX2(dst, a, b []float64, relu bool) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func addConstAVX2(dst []float64, c float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func bnApplyAVX2(dst, xhat, x []float64, mu, inv, gamma, beta float64, relu bool) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func bnBackwardAVX2(dx, dy, xhat, out []float64, k, fn, sdy, sdx float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func planeSumsAVX2(x []float64, n, cnt, lanes int, s *[4]float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func planeSqDevAVX2(x []float64, n, cnt, lanes int, mean, s *[4]float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func planeGradSumsAVX2(dy, xhat, out []float64, n, cnt, lanes int, sdy, sdx *[4]float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func maxPoolRowAVX2(dst []float64, which []uint8, r0, r1 []float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func maxPoolBackRowAVX2(d0, d1, g []float64, which []uint8) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}
