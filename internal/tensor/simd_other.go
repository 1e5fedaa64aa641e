//go:build !amd64

package tensor

// Without amd64 assembly the Go loops in simd.go are the only bodies.

func hasAVX2() bool { return false }

func axpy4AVX2(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}

func dot4x4AVX2(g, p0, p1, p2, p3 []float64, s *[16]float64) {
	panic("tensor: AVX2 kernel on a non-amd64 build")
}
