package tensor

// SIMD leaf primitives for the f64 conv and GEMM hot loops. Both vectorize
// across independent output elements — one output per SIMD lane — and never
// across a reduction, so every element's chain keeps the exact operations,
// association and order of the scalar Go loop: a vector lane computes what
// the scalar loop computes for that element, bit for bit. The amd64 bodies
// use only VMULPD/VADDPD (and their scalar forms for tails), never FMA, whose
// single rounding would change bits.
//
// Dispatch is a single package variable set once at init from CPUID: hosts
// with AVX2 run the assembly, everything else (other architectures, older
// amd64 parts) runs the Go loops below. The Go loops are both the portable
// production path and the oracle the AVX2 parity tests compare against;
// tests clear useAVX2 to force them.

// useAVX2 selects the AVX2 assembly bodies of axpy4 and dot4x4.
var useAVX2 = hasAVX2()

// axpy4 is the grouped four-term update
//
//	dst[t] += a0*p0[t] + a1*p1[t] + a2*p2[t] + a3*p3[t]
//
// for every t in dst, evaluated left to right exactly as written. It is the
// inner loop of GemmNN's four-row reduction groups and of the fused conv
// kernels built on the same grouping. Each p must be at least len(dst) long.
func axpy4(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64) {
	n := len(dst)
	p0, p1, p2, p3 = p0[:n], p1[:n], p2[:n], p3[:n]
	if useAVX2 {
		axpy4AVX2(dst, a0, a1, a2, a3, p0, p1, p2, p3)
		return
	}
	for t := range dst {
		dst[t] += a0*p0[t] + a1*p1[t] + a2*p2[t] + a3*p3[t]
	}
}

// dot4x4 computes sixteen dot products at once: row r of a four-row block
// against each of four columns p0..p3, with the block's rows interleaved in
// g as g[4t+r]. s[4c+r] receives
//
//	sum over t ascending of g[4t+r] * pc[t]
//
// as one strictly sequential accumulator starting at +0 — GemmNT's four-wide
// panel flavor per element. len(g) must be 4n and each p at least n long.
func dot4x4(g, p0, p1, p2, p3 []float64, s *[16]float64) {
	n := len(g) / 4
	g, p0, p1, p2, p3 = g[:4*n], p0[:n], p1[:n], p2[:n], p3[:n]
	if useAVX2 {
		dot4x4AVX2(g, p0, p1, p2, p3, s)
		return
	}
	for r := 0; r < 4; r++ {
		var s0, s1, s2, s3 float64
		for t := range p0 {
			av := g[4*t+r]
			s0 += av * p0[t]
			s1 += av * p1[t]
			s2 += av * p2[t]
			s3 += av * p3[t]
		}
		s[r], s[4+r], s[8+r], s[12+r] = s0, s1, s2, s3
	}
}
