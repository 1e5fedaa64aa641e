package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// hostLevel is the widest body this host runs.
var hostLevel = detectLevel()

// onLevel runs f with every kernel of the package on the bodies of level
// l, and skips t when the host cannot run them.
func onLevel(t testing.TB, l simdLevel, f func()) {
	t.Helper()
	if l > hostLevel {
		t.Skipf("host has no %v body", l)
	}
	saved := level
	level = l
	defer func() { level = saved }()
	f()
}

// edgeValues are the operands most likely to expose a lane computing
// anything but the scalar expression: signed zeros, subnormals, values
// whose products overflow or underflow, infinities (whose products with
// zero are NaN), and ordinary magnitudes.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
	1e-200, -1e-200, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), 1, -1, 0.1, 3, -7.5,
}

// edgeSlice returns n values starting at offset off of a fresh backing
// array, so the slice base is misaligned for off % 4 != 0.
func edgeSlice(rng *rand.Rand, n, off int) []float64 {
	buf := make([]float64, off+n)
	s := buf[off:]
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return s
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAxpy4AVX2MatchesGo pins the group-axpy assembly to the Go loop bit
// for bit at every length through 40 (every 8-, 4- and 1-wide tail), at
// misaligned offsets, on edge-case operands.
func TestAxpy4AVX2MatchesGo(t *testing.T) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 8; trial++ {
			off := trial % 4
			var ps [4][]float64
			var as [4]float64
			for i := range ps {
				ps[i] = edgeSlice(rng, n+rng.Intn(3), (off+i)%4)
				as[i] = edgeSlice(rng, 1, 0)[0]
			}
			dst := edgeSlice(rng, n, off)
			want := append([]float64(nil), dst...)
			onLevel(t, levelAVX2, func() {
				axpy4(dst, as[0], as[1], as[2], as[3], ps[0], ps[1], ps[2], ps[3])
			})
			onLevel(t, levelGo, func() {
				axpy4(want, as[0], as[1], as[2], as[3], ps[0], ps[1], ps[2], ps[3])
			})
			if i := sameBits(dst, want); i >= 0 {
				t.Fatalf("n=%d trial=%d elem %d: avx2 %v (%#x), go %v (%#x)", n, trial, i,
					dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// gappedSpan returns h rows of w steps separated by gap steps, as the
// interior of a padded gradient plane holds them: n = (h-1)(w+gap)+w
// steps, 0 for h = 0. lanes values per step come from edgeSlice, and the
// gap steps' values are NaN, which a body that reads them cannot hide.
func gappedSpan(rng *rand.Rand, h, w, gap, lanes int) (g []float64, n int) {
	if h > 0 {
		n = (h-1)*(w+gap) + w
	}
	g = edgeSlice(rng, lanes*n, (w+gap)%4)
	for t := 0; t < n; t++ {
		if t%(w+gap) >= w {
			for r := 0; r < lanes; r++ {
				g[lanes*t+r] = math.NaN()
			}
		}
	}
	return g, n
}

// TestDot4x4AVX2MatchesGo does the same for the 4×4 dot over gapped spans
// of every shape through four rows of nine steps and gaps of three,
// including the empty reduction (all sixteen sums +0).
func TestDot4x4AVX2MatchesGo(t *testing.T) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(43))
	for h := 0; h <= 4; h++ {
		for w := 1; w <= 9; w++ {
			for gap := 0; gap <= 3; gap++ {
				g, n := gappedSpan(rng, h, w, gap, 4)
				var ps [4][]float64
				for i := range ps {
					ps[i] = edgeSlice(rng, n+rng.Intn(3), (w+i+1)%4)
				}
				var got, want [16]float64
				for i := range got {
					got[i], want[i] = math.NaN(), math.NaN() // must be overwritten
				}
				onLevel(t, levelAVX2, func() { dot4x4(g, ps[0], ps[1], ps[2], ps[3], &got, w, gap) })
				onLevel(t, levelGo, func() { dot4x4(g, ps[0], ps[1], ps[2], ps[3], &want, w, gap) })
				if i := sameBits(got[:], want[:]); i >= 0 {
					t.Fatalf("h=%d w=%d gap=%d sum %d: avx2 %v (%#x), go %v (%#x)", h, w, gap, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// dwTileWant adds to c what the Go bodies give for one dW register tile:
// each four rows 4·half.. of the lanes-row interleaved g against the
// first nc of the eight columns at offs in x, each sum from a Go dot4x4
// over the gapped span then added to c[r*ldc+j].
func dwTileWant(t *testing.T, g, x []float64, offs [8]int, c []float64, lanes, ldc, w, gap, nc int) {
	n := len(g) / lanes
	g4 := make([]float64, 4*n)
	onLevel(t, levelGo, func() {
		var s [16]float64
		for half := 0; half < lanes/4; half++ {
			for i := 0; i < n; i++ {
				copy(g4[4*i:4*i+4], g[lanes*i+4*half:])
			}
			for cb := 0; cb < 2; cb++ {
				q := offs[4*cb:]
				dot4x4(g4, x[q[0]:], x[q[1]:], x[q[2]:], x[q[3]:], &s, w, gap)
				for r := 0; r < 4; r++ {
					for j := 0; j < 4 && 4*cb+j < nc; j++ {
						c[(4*half+r)*ldc+4*cb+j] += s[4*j+r]
					}
				}
			}
		}
	})
}

// TestDWTileAVX2MatchesGo pins ConvDWPad's eight-column register tile to
// two Go dot4x4 calls over its column halves, each sum then added to its
// gradient element, on edge-case operands at misaligned bases, with
// columns at arbitrary (overlapping) offsets into one input and gradient
// rows at a stride. The spans are h rows of w steps separated by gap
// steps, as in a padded gradient plane; every body steps over the gaps.
func TestDWTileAVX2MatchesGo(t *testing.T) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(61))
	const ldc = 11
	for h := 1; h <= 4; h++ {
		for w := 1; w <= 9; w++ {
			for gap := 0; gap <= 3; gap++ {
				g, n := gappedSpan(rng, h, w, gap, 4)
				x := edgeSlice(rng, n+20, (h+w)%4)
				var offs [8]int
				for c := range offs {
					offs[c] = rng.Intn(21)
				}
				got := edgeSlice(rng, 3*ldc+8, gap)
				want := append([]float64(nil), got...)
				onLevel(t, levelAVX2, func() { dwTileAVX2(g, x, offs[:], got, ldc, w, gap) })
				dwTileWant(t, g, x, offs, want, 4, ldc, w, gap, 8)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("h=%d w=%d gap=%d elem %d: avx2 %v (%#x), go %v (%#x)", h, w, gap, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestDWTileAVX512MatchesGo holds the eight-row AVX-512 dW tile to four
// Go dot4x4 calls per row half, on the spans and operands of
// TestDWTileAVX2MatchesGo, for every stored column count: the elements
// past nc in each gradient row must keep their bits.
func TestDWTileAVX512MatchesGo(t *testing.T) {
	onLevel(t, levelAVX512, func() {})
	rng := rand.New(rand.NewSource(67))
	const ldc = 13
	for h := 1; h <= 4; h++ {
		for w := 1; w <= 9; w++ {
			for gap := 0; gap <= 3; gap++ {
				for nc := 1; nc <= 8; nc++ {
					g, n := gappedSpan(rng, h, w, gap, 8)
					x := edgeSlice(rng, n+20, (h+w+nc)%4)
					var offs [8]int
					for c := range offs {
						offs[c] = rng.Intn(21)
					}
					got := edgeSlice(rng, 8*ldc, gap)
					want := append([]float64(nil), got...)
					onLevel(t, levelAVX512, func() { dwTileAVX512(g, x, offs[:], got, ldc, w, gap, nc) })
					dwTileWant(t, g, x, offs, want, 8, ldc, w, gap, nc)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("h=%d w=%d gap=%d nc=%d elem %d: avx512 %v (%#x), go %v (%#x)", h, w, gap, nc, i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// rowProgram runs the conv kernels' reduction program for one channel at
// one position, whose term i reads x[base+offs[i]] and weighs wts[i]:
// from term ti, n4 groups of four terms, then nm groups of m, each
// group's left-to-right sum added to acc as the Go bodies add it. It
// returns acc and the next term.
func rowProgram(acc float64, x []float64, offs []int, wts []float64, base, ti, n4, m, nm int) (float64, int) {
	term := func(i int) float64 { return wts[i] * x[base+offs[i]] }
	for range n4 {
		acc += ((term(ti) + term(ti+1)) + term(ti+2)) + term(ti+3)
		ti += 4
	}
	for range nm {
		s := term(ti)
		for i := 1; i < m; i++ {
			s += term(ti + i)
		}
		acc += s
		ti += m
	}
	return acc, ti
}

// TestConvRowAVX512MatchesGo pins the AVX-512 conv plane kernel to its
// reduction program in scalar Go, on edge-case operands at misaligned
// bases, for every reduction program shape (groups of 1 to 4, sub-sum
// repetitions), every channel count of a tile (planes past nc and the
// gaps between planes must keep their bits), and planes whose widths
// leave every shifted last chunk (w = 9..15, 17, 23, 25, 31, 33), chunk
// pairs that span rows (w = 8, and w = 16, 24 at odd rows) and odd chunk
// counts that leave a last chunk alone.
func TestConvRowAVX512MatchesGo(t *testing.T) {
	onLevel(t, levelAVX512, func() {})
	rng := rand.New(rand.NewSource(71))
	programs := []struct{ n4, m, nm, reps int }{
		{3, 1, 3, 0}, {2, 1, 0, 0}, {0, 1, 5, 0}, {0, 2, 4, 0}, {0, 3, 3, 0},
		{1, 2, 1, 0}, {2, 1, 3, 3}, {1, 1, 0, 4}, {0, 1, 2, 2},
	}
	widths := []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25, 31, 33}
	for _, p := range programs {
		terms := 4*p.n4 + p.m*p.nm
		if p.reps > 0 {
			terms *= p.reps
		}
		for _, w := range widths {
			for h := 1; h <= 3; h++ {
				nc := 1 + (w+h)%4
				wp := w + rng.Intn(3)
				offs := make([]int, terms)
				for i := range offs {
					offs[i] = rng.Intn(2 * wp)
				}
				x := edgeSlice(rng, (h-1)*wp+w+2*wp, (w+h)%4)
				wstride := terms + rng.Intn(3)
				wts := edgeSlice(rng, (nc-1)*wstride+terms, h%4)
				dstride := h*w + rng.Intn(3)
				got, want := nanSlice(4*dstride), nanSlice(4*dstride)
				onLevel(t, levelAVX512, func() {
					convPlaneAVX512(x, offs, wts, got, wstride, dstride, nc, h, w, wp, p.n4, p.m, p.nm, p.reps)
				})
				for c := 0; c < nc; c++ {
					cw := wts[c*wstride:]
					for oy := 0; oy < h; oy++ {
						for ox := 0; ox < w; ox++ {
							base := oy*wp + ox
							var acc float64
							if p.reps == 0 {
								acc, _ = rowProgram(0, x, offs, cw, base, 0, p.n4, p.m, p.nm)
							}
							for r, ti := 0, 0; r < p.reps; r++ {
								var sub float64
								sub, ti = rowProgram(0, x, offs, cw, base, ti, p.n4, p.m, p.nm)
								acc += sub
							}
							want[c*dstride+oy*w+ox] = acc
						}
					}
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("program %v h=%d w=%d wp=%d nc=%d elem %d: avx512 %v (%#x), go %v (%#x)",
						p, h, w, wp, nc, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// convShape is one conv layer: inC → outC channels, k×k kernel, h×w plane.
type convShape struct{ inC, outC, h, w, k int }

func (s convShape) String() string {
	return strconv.Itoa(s.inC) + "c" + strconv.Itoa(s.outC) + "_" +
		strconv.Itoa(s.h) + "x" + strconv.Itoa(s.w) + "k" + strconv.Itoa(s.k)
}

// defaultNetShapes lists the distinct conv layers of the default search
// networks (nn.Config{N, BaseChannels: 4, Pools: 3}) at N = 8 and 10: the
// N|1 stem on the N²×N² plane, then 3×3 convs and residual blocks over
// three 2× pools, and the three head convs.
var defaultNetShapes = map[int][]convShape{
	8: {
		{1, 4, 64, 64, 9}, {4, 4, 64, 64, 3}, {4, 8, 32, 32, 3}, {8, 8, 16, 16, 3},
		{8, 16, 16, 16, 3}, {16, 16, 8, 8, 3}, {16, 32, 8, 8, 3}, {32, 32, 8, 8, 3},
		{32, 2, 8, 8, 3}, {32, 1, 8, 8, 3},
	},
	10: {
		{1, 4, 100, 100, 11}, {4, 4, 100, 100, 3}, {4, 8, 50, 50, 3}, {8, 8, 25, 25, 3},
		{8, 16, 25, 25, 3}, {16, 16, 12, 12, 3}, {16, 32, 12, 12, 3}, {32, 32, 12, 12, 3},
		{32, 2, 12, 12, 3}, {32, 1, 12, 12, 3},
	},
}

// convOperands holds one layer's inputs for nb samples in the layouts the
// fused kernels read, plus the scratch they need. Planes are channel-major,
// plane (c, bi) at c*nb+bi.
type convOperands struct {
	convShape
	nb                          int
	weights, cols, grads, gpads []float64
	xp, work                    []float64
	offs                        []int
	out, dw                     []float64 // benchmark outputs
	hpwp                        int
}

func newConvOperands(rng *rand.Rand, s convShape, nb int) *convOperands {
	o := &convOperands{convShape: s, nb: nb}
	hw := s.h * s.w
	ickk := s.inC * s.k * s.k
	wp := s.w + s.k - 1
	o.hpwp = (s.h + s.k - 1) * wp
	x := make([]float64, s.inC*nb*hw)
	for i := range x {
		if rng.Intn(4) != 0 { // post-ReLU inputs: a quarter exact zeros
			x[i] = rng.NormFloat64()
		}
	}
	o.weights = make([]float64, s.outC*ickk)
	for i := range o.weights {
		o.weights[i] = rng.NormFloat64()
	}
	o.grads = make([]float64, s.outC*nb*hw)
	for i := range o.grads {
		o.grads[i] = rng.NormFloat64()
	}
	x0 := make([]float64, s.inC*hw)
	for ic := 0; ic < s.inC; ic++ {
		copy(x0[ic*hw:(ic+1)*hw], x[ic*nb*hw:])
	}
	o.cols = make([]float64, ickk*hw)
	Im2col(x0, s.inC, s.h, s.w, s.k, (s.k-1)/2, o.cols)
	o.xp = make([]float64, s.inC*nb*o.hpwp)
	for p := 0; p < s.inC*nb; p++ {
		PadPlane(x[p*hw:], s.h, s.w, s.k, o.xp[p*o.hpwp:])
	}
	o.gpads = make([]float64, s.outC*nb*o.hpwp)
	for p := 0; p < s.outC*nb; p++ {
		PadGradPlane(o.grads[p*hw:], s.h, s.w, s.k, o.gpads[p*o.hpwp:])
	}
	nf, ni := ConvWork(s.outC, s.inC, s.h, s.w, s.k)
	o.work, o.offs = make([]float64, nf), make([]int, ni)
	return o
}

// nanSlice returns n NaNs: kernel outputs start poisoned, so an element a
// body fails to write cannot match by accident.
func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// fwd runs ConvFwdPad on all nb samples.
func (o *convOperands) fwd(out []float64) {
	ConvFwdPad(o.weights, o.outC, o.inC, o.nb, o.xp, o.hpwp, o.h, o.w, o.k, out, o.h*o.w, o.work, o.offs)
}

// dW runs ConvDWPad on all nb samples.
func (o *convOperands) dW(dw []float64) {
	ConvDWPad(o.gpads, o.hpwp, o.xp, o.hpwp, o.outC, o.inC, o.nb, o.h, o.w, o.k, dw, o.work, o.offs)
}

// dx runs ConvDXPad on all nb samples.
func (o *convOperands) dx(dx []float64) {
	ConvDXPad(o.weights, o.outC, o.inC, o.nb, o.gpads, o.hpwp, o.h, o.w, o.k, dx, o.h*o.w, o.work, o.offs)
}

// run evaluates ConvFwdPad, ConvDWPad, ConvDXPad and GemmNN (sample 0),
// in that order, and returns their outputs.
func (o *convOperands) run() [4][]float64 {
	hw := o.h * o.w
	ickk := o.inC * o.k * o.k
	fwd := nanSlice(o.outC * o.nb * hw)
	o.fwd(fwd)
	dw := make([]float64, o.outC*ickk)
	for i := range dw {
		dw[i] = float64(i%7) - 3 // dW accumulates
	}
	o.dW(dw)
	dx := nanSlice(o.inC * o.nb * hw)
	o.dx(dx)
	gemm := make([]float64, o.outC*hw)
	GemmNN(o.outC, hw, ickk, o.weights, o.cols, gemm, false)
	return [4][]float64{fwd, dw, dx, gemm}
}

// tileEdgeShapes exercise the tiled kernels' edges: widths that leave 4-
// and 1-wide AVX2 row tails (and w = 1, all tail), every shifted last
// AVX-512 chunk (w = 9..15, 17, 23) and the 10×10 net's plane widths (100,
// 50, 25, 12), every channel count either side of the four-lane blocks
// for both the lane dimension and the grouped reduction (dX's outC ≤ 4
// straight groups and outC > 4 sub-sums), and reductions that end in
// singles: 15·3² = 135 (a second gemmKC panel of 7) and 2·5² = 50.
func tileEdgeShapes() []convShape {
	var shapes []convShape
	for _, w := range []int{1, 2, 3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 17, 23, 25, 50, 100} {
		shapes = append(shapes, convShape{6, 5, 3, w, 3})
	}
	for _, inC := range []int{1, 2, 3, 5, 6} {
		for _, outC := range []int{1, 2, 3, 5, 6} {
			shapes = append(shapes, convShape{inC, outC, 2, 13, 3})
		}
	}
	return append(shapes, convShape{15, 6, 5, 12, 3}, convShape{15, 3, 4, 9, 3},
		convShape{2, 3, 6, 7, 5}, convShape{2, 6, 3, 10, 5}, convShape{3, 5, 5, 5, 4})
}

// TestConvKernelsAVX2MatchGo runs ConvFwdPad, ConvDWPad, ConvDXPad and
// GemmNN on every conv layer of the default 8×8 and 10×10 networks, on
// the channel counts either side of the four-lane groups and of the
// AVX-512 dW tile's eight-row blocks, on the smallest plane the nets
// allow, and on the tile edges of tileEdgeShapes, on every assembly body
// the host runs (avx2, avx512) against the Go bodies, and requires
// bit-equal results.
func TestConvKernelsAVX2MatchGo(t *testing.T) {
	shapes := append(append([]convShape(nil), defaultNetShapes[8]...), defaultNetShapes[10]...)
	shapes = append(shapes,
		convShape{3, 1, 6, 7, 3}, convShape{3, 2, 6, 7, 3}, convShape{3, 3, 6, 7, 3},
		convShape{3, 5, 6, 7, 3}, convShape{5, 5, 2, 2, 3}, convShape{8, 4, 2, 2, 3},
		// dW tile edges at the 8×8 net's plane: the remainder-row lanes of
		// outC ∈ {1, 2, 3, 5, 6}, and inC·k² (54, 45, 27, 540) not a
		// multiple of the eight-column tile, 540 across two jc panels.
		convShape{6, 1, 8, 8, 3}, convShape{6, 2, 8, 8, 3}, convShape{3, 3, 8, 8, 3},
		convShape{6, 5, 8, 8, 3}, convShape{5, 6, 8, 8, 3}, convShape{60, 5, 8, 8, 3},
		// Eight-row dW blocks followed by four-row and partial blocks.
		convShape{3, 12, 8, 8, 3}, convShape{4, 13, 5, 6, 3}, convShape{2, 10, 9, 11, 3},
		convShape{5, 15, 4, 9, 3},
	)
	shapes = append(shapes, tileEdgeShapes()...)
	rng := rand.New(rand.NewSource(47))
	for _, s := range shapes {
		t.Run(s.String(), func(t *testing.T) {
			o := newConvOperands(rng, s, 1)
			var want [4][]float64
			onLevel(t, levelGo, func() { want = o.run() })
			for _, l := range []simdLevel{levelAVX2, levelAVX512} {
				t.Run(l.String(), func(t *testing.T) {
					var got [4][]float64
					onLevel(t, l, func() { got = o.run() })
					for i, name := range []string{"ConvFwdPad", "ConvDWPad", "ConvDXPad", "GemmNN"} {
						if e := sameBits(got[i], want[i]); e >= 0 {
							t.Fatalf("%s elem %d: %v %v, go %v", name, e, l, got[i][e], want[i][e])
						}
					}
				})
			}
		})
	}
}

// TestConvKernelsBatchMatchPerSample requires ConvFwdPad and ConvDXPad on
// nb samples to give each sample the bits of a one-sample call on that
// sample's planes, and ConvDWPad on nb samples to accumulate the bits of
// nb one-sample calls in sample order, on every body the host runs.
func TestConvKernelsBatchMatchPerSample(t *testing.T) {
	const nb = 3
	rng := rand.New(rand.NewSource(59))
	for _, s := range []convShape{{6, 5, 3, 13, 3}, {3, 2, 4, 5, 3}, {5, 4, 2, 9, 3}, {1, 4, 9, 9, 9}, {3, 9, 5, 11, 3}} {
		for _, l := range []simdLevel{levelGo, levelAVX2, levelAVX512} {
			t.Run(s.String()+"/"+l.String(), func(t *testing.T) {
				o := newConvOperands(rng, s, nb)
				hw := s.h * s.w
				fwd := make([]float64, s.outC*nb*hw)
				dx := make([]float64, s.inC*nb*hw)
				one := make([]float64, max(s.outC, s.inC)*hw)
				ickk := s.inC * s.k * s.k
				dw := make([]float64, s.outC*ickk)
				dwSeq := make([]float64, s.outC*ickk)
				onLevel(t, l, func() {
					o.fwd(fwd)
					o.dx(dx)
					o.dW(dw)
					for bi := 0; bi < nb; bi++ {
						ConvFwdPad(o.weights, s.outC, s.inC, 1, o.xp[bi*o.hpwp:], nb*o.hpwp, s.h, s.w, s.k,
							one, hw, o.work, o.offs)
						for oc := 0; oc < s.outC; oc++ {
							if e := sameBits(fwd[(oc*nb+bi)*hw:][:hw], one[oc*hw:][:hw]); e >= 0 {
								t.Fatalf("ConvFwdPad sample %d channel %d elem %d differs", bi, oc, e)
							}
						}
						ConvDXPad(o.weights, s.outC, s.inC, 1, o.gpads[bi*o.hpwp:], nb*o.hpwp, s.h, s.w, s.k,
							one, hw, o.work, o.offs)
						for ic := 0; ic < s.inC; ic++ {
							if e := sameBits(dx[(ic*nb+bi)*hw:][:hw], one[ic*hw:][:hw]); e >= 0 {
								t.Fatalf("ConvDXPad sample %d channel %d elem %d differs", bi, ic, e)
							}
						}
						ConvDWPad(o.gpads[bi*o.hpwp:], nb*o.hpwp, o.xp[bi*o.hpwp:], nb*o.hpwp,
							s.outC, s.inC, 1, s.h, s.w, s.k, dwSeq, o.work, o.offs)
					}
					if e := sameBits(dw, dwSeq); e >= 0 {
						t.Fatalf("ConvDWPad elem %d differs from in-order one-sample calls", e)
					}
				})
			})
		}
	}
}
