package tensor

// SIMD leaf primitives for the f64 conv and GEMM hot loops. Both vectorize
// across independent output elements — one output per SIMD lane — and never
// across a reduction, so every element's chain keeps the exact operations,
// association and order of the scalar Go loop: a vector lane computes what
// the scalar loop computes for that element, bit for bit. The amd64 bodies
// use only VMULPD/VADDPD (and their scalar forms for tails), never FMA, whose
// single rounding would change bits.
//
// One exception: a NaN's payload. When both operands of a multiply or add
// are NaNs with different payloads, x86 returns the first source's, and
// neither the assembly nor the Go compiler promises which operand that is,
// so the bodies may keep different payloads. Every NaN the kernels create
// themselves (0·Inf, Inf−Inf) is the one default NaN, so finite and
// infinite operands give the same bits on every body; only inputs that
// already hold NaNs of two payloads can differ, and then only in which
// NaN comes out.
//
// Dispatch is a single package variable set once at init from CPUID: hosts
// with AVX-512F run the AVX-512 conv tiles of conv_tile.go and the AVX2
// primitives, hosts with AVX2 the AVX2 bodies, everything else (other
// architectures, older amd64 parts) the Go loops below. The Go loops are
// both the portable production path and the oracle the assembly parity
// tests compare against; tests set level to force a body, and SetSIMD
// lets other packages' tests run a whole program on each body.
//
// The kernels with assembly bodies, each with its parity test:
//   - conv: axpy4 and dot4x4 (AVX2), convRowAVX2 and dwTileAVX2 (AVX2),
//     convPlaneAVX512 and dwTileAVX512 (AVX-512), in simd_amd64.s;
//   - the layers between the convolutions (elementwise.go, AVX2 in
//     elementwise_amd64.s, which AVX-512 hosts run too): ReLU, ReLUMask,
//     Add, AddReLU, AddConst, BNApply, BNBackward, MaxPoolRow,
//     MaxPoolBackRow, and the one-plane-per-lane sums PlaneSums,
//     PlaneMoments and PlaneGradSums.

// simdLevel names a set of kernel bodies; each level's host also runs the
// levels below it.
type simdLevel uint8

const (
	levelGo simdLevel = iota
	levelAVX2
	levelAVX512
)

func (l simdLevel) String() string {
	return [...]string{"go", "avx2", "avx512"}[l]
}

// level selects the bodies every kernel of this package runs.
var level = detectLevel()

// SIMD names the kernel bodies this process runs: "go", "avx2" or
// "avx512". Every body gives the same bits, so it is provenance for
// timings, not for results.
func SIMD() string { return level.String() }

// SetSIMD makes every kernel run the bodies name selects ("go", "avx2" or
// "avx512", as SIMD reports them) and returns a function that restores
// the previous ones. It reports false and changes nothing when the host
// cannot run them or the name is unknown. It lets tests and benchmarks
// run a whole program on each body; no kernel may run concurrently with
// it.
func SetSIMD(name string) (restore func(), ok bool) {
	for l := levelGo; l <= detectLevel(); l++ {
		if l.String() == name {
			saved := level
			level = l
			return func() { level = saved }, true
		}
	}
	return nil, false
}

// detectLevel returns the widest level the CPU and OS support.
func detectLevel() simdLevel {
	switch {
	case !hasAVX2():
		return levelGo
	case hasAVX512():
		return levelAVX512
	}
	return levelAVX2
}

// axpy4 is the grouped four-term update
//
//	dst[t] += a0*p0[t] + a1*p1[t] + a2*p2[t] + a3*p3[t]
//
// for every t in dst, evaluated left to right exactly as written. It is the
// inner loop of the Go conv bodies and of the lowered GemmNN (a test
// oracle) whose four-row reduction groups they replicate. Each p must be
// at least len(dst) long.
func axpy4(dst []float64, a0, a1, a2, a3 float64, p0, p1, p2, p3 []float64) {
	n := len(dst)
	p0, p1, p2, p3 = p0[:n], p1[:n], p2[:n], p3[:n]
	if level >= levelAVX2 {
		axpy4AVX2(dst, a0, a1, a2, a3, p0, p1, p2, p3)
		return
	}
	for t := range dst {
		dst[t] += a0*p0[t] + a1*p1[t] + a2*p2[t] + a3*p3[t]
	}
}

// dot4x4 computes sixteen dot products at once: row r of a four-row block
// against each of four columns p0..p3, with the block's rows interleaved in
// g as g[4t+r]. The span is rows of w ≥ 1 steps separated by gap steps,
// and s[4c+r] receives
//
//	sum over the row steps t ascending of g[4t+r] * pc[t]
//
// as one strictly sequential accumulator starting at +0 — GemmNT's
// four-wide panel flavor per element, which has no gap terms. len(g) must
// be 4n for a span of n = (h-1)·(w+gap)+w steps (or 0), and each p at
// least n long.
func dot4x4(g, p0, p1, p2, p3 []float64, s *[16]float64, w, gap int) {
	n := len(g) / 4
	g, p0, p1, p2, p3 = g[:4*n], p0[:n], p1[:n], p2[:n], p3[:n]
	if level >= levelAVX2 {
		dot4x4AVX2(g, p0, p1, p2, p3, s, w, gap)
		return
	}
	for r := 0; r < 4; r++ {
		var s0, s1, s2, s3 float64
		for t0 := 0; t0 < n; t0 += w + gap {
			for t := t0; t < t0+w; t++ {
				av := g[4*t+r]
				s0 += av * p0[t]
				s1 += av * p1[t]
				s2 += av * p2[t]
				s3 += av * p3[t]
			}
		}
		s[r], s[4+r], s[8+r], s[12+r] = s0, s1, s2, s3
	}
}
