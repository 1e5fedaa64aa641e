package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul computes C += Aᵒᵖ·Bᵒᵖ the slow, obviously-correct way.
func naiveMatMul(m, n, k int, a, b, c []float64, transA, transB bool) {
	at := func(i, l int) float64 {
		if transA {
			return a[l*m+i]
		}
		return a[i*k+l]
	}
	bt := func(l, j int) float64 {
		if transB {
			return b[j*k+l]
		}
		return b[l*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c[i*n+j] += s
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestGemmVariantsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Shapes straddle the blocking panels (gemmNC=512, gemmKC=128) and
	// include degenerate vector cases (n=1, k=1) used by the Dense layer.
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 1, 7}, {1, 5, 1}, {2, 3, 4},
		{7, 13, 5}, {16, 600, 9}, {5, 17, 130}, {9, 520, 131},
		{32, 1, 64}, {1, 64, 32},
	}
	for _, sh := range shapes {
		a := randSlice(rng, sh.m*sh.k)
		at := randSlice(rng, sh.k*sh.m)
		b := randSlice(rng, sh.k*sh.n)
		bt := randSlice(rng, sh.n*sh.k)
		for _, acc := range []bool{false, true} {
			base := randSlice(rng, sh.m*sh.n)
			check := func(name string, got, want []float64) {
				t.Helper()
				if d := maxAbsDiff(got, want); d > 1e-12 {
					t.Fatalf("%s %+v acc=%v: max diff %g", name, sh, acc, d)
				}
			}
			prep := func() (got, want []float64) {
				got = append([]float64(nil), base...)
				want = append([]float64(nil), base...)
				if !acc {
					for i := range want {
						want[i] = 0
					}
				}
				return got, want
			}

			got, want := prep()
			GemmNN(sh.m, sh.n, sh.k, a, b, got, acc)
			naiveMatMul(sh.m, sh.n, sh.k, a, b, want, false, false)
			check("GemmNN", got, want)

			got, want = prep()
			GemmNT(sh.m, sh.n, sh.k, a, bt, got, acc)
			naiveMatMul(sh.m, sh.n, sh.k, a, bt, want, false, true)
			check("GemmNT", got, want)

			got, want = prep()
			GemmTN(sh.m, sh.n, sh.k, at, b, got, acc)
			naiveMatMul(sh.m, sh.n, sh.k, at, b, want, true, false)
			check("GemmTN", got, want)
		}
	}
}

func TestGemmPanicsOnShortBuffers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short C buffer")
		}
	}()
	GemmNN(2, 2, 2, make([]float64, 4), make([]float64, 4), make([]float64, 3), false)
}

// naiveIm2col is the gather definition the fast path must match.
func naiveIm2col(x []float64, inC, h, w, k, pad int) []float64 {
	cols := make([]float64, inC*k*k*h*w)
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < w; ox++ {
						iy, ix := oy+ky-pad, ox+kx-pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						cols[r*h*w+oy*w+ox] = x[(ic*h+iy)*w+ix]
					}
				}
			}
		}
	}
	return cols
}

var im2colShapes = []struct{ inC, h, w, k, pad int }{
	{1, 1, 1, 1, 0},
	{1, 4, 4, 3, 1},
	{2, 5, 7, 3, 1},
	{3, 6, 4, 5, 2},
	{2, 3, 3, 5, 2}, // kernel larger than the map
	{1, 8, 8, 1, 0},
	{4, 7, 7, 3, 0}, // no padding: border columns are all-zero
}

func TestIm2colMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range im2colShapes {
		x := randSlice(rng, sh.inC*sh.h*sh.w)
		cols := randSlice(rng, sh.inC*sh.k*sh.k*sh.h*sh.w) // garbage: must be fully overwritten
		Im2col(x, sh.inC, sh.h, sh.w, sh.k, sh.pad, cols)
		want := naiveIm2col(x, sh.inC, sh.h, sh.w, sh.k, sh.pad)
		if d := maxAbsDiff(cols, want); d != 0 {
			t.Fatalf("Im2col %+v: max diff %g", sh, d)
		}
	}
}

func TestCol2imIsIm2colAdjoint(t *testing.T) {
	// <Im2col(x), c> == <x, Col2im(c)> for random x, c: the defining
	// property of the adjoint, which is exactly what backprop needs.
	rng := rand.New(rand.NewSource(3))
	for _, sh := range im2colShapes {
		nx := sh.inC * sh.h * sh.w
		nc := sh.inC * sh.k * sh.k * sh.h * sh.w
		x := randSlice(rng, nx)
		c := randSlice(rng, nc)
		cols := make([]float64, nc)
		Im2col(x, sh.inC, sh.h, sh.w, sh.k, sh.pad, cols)
		back := randSlice(rng, nx) // garbage: Col2im must overwrite
		Col2im(c, sh.inC, sh.h, sh.w, sh.k, sh.pad, back)
		var lhs, rhs float64
		for i := range cols {
			lhs += cols[i] * c[i]
		}
		for i := range x {
			rhs += x[i] * back[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint mismatch %+v: %g vs %g", sh, lhs, rhs)
		}
	}
}

func TestSoftmaxIntoMatchesSoftmax(t *testing.T) {
	xs := []float64{-2, 0.5, 3, 3, -7}
	dst := make([]float64, len(xs))
	SoftmaxInto(dst, xs)
	if d := maxAbsDiff(dst, Softmax(xs)); d != 0 {
		t.Fatalf("SoftmaxInto differs from Softmax by %g", d)
	}
}

// BenchmarkGemm measures the lowered GemmNN on the shapes the conv layers
// would produce lowered: "stem8x8" is the 8×8 net's stem convolution (16
// output channels, 9×9 kernel on a 64×64 map) and "conv2_8x8" its second
// stage; "square128" is a reference cube. Reports GFLOP/s.
func BenchmarkGemm(b *testing.B) {
	for _, sz := range []struct {
		name    string
		m, n, k int
	}{
		{"stem8x8_16x4096x81", 16, 4096, 81},
		{"conv2_8x8_32x1024x144", 32, 1024, 144},
		{"square128", 128, 128, 128},
	} {
		b.Run(sz.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			a := randSlice(rng, sz.m*sz.k)
			bb := randSlice(rng, sz.k*sz.n)
			c := make([]float64, sz.m*sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmNN(sz.m, sz.n, sz.k, a, bb, c, false)
			}
			flops := 2 * float64(sz.m) * float64(sz.n) * float64(sz.k)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
