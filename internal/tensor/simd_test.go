package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// forceGo runs f with the SIMD primitives on their portable Go bodies.
func forceGo(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("host has no AVX2: the Go bodies are the only path")
	}
}

// edgeValues are the operands most likely to expose a lane computing
// anything but the scalar expression: signed zeros, subnormals, values
// whose products overflow or underflow, and ordinary magnitudes.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
	1e-200, -1e-200, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.1, 3, -7.5,
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
	requireAVX2(t)
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
			axpy4(dst, as[0], as[1], as[2], as[3], ps[0], ps[1], ps[2], ps[3])
			forceGo(func() {
				axpy4(want, as[0], as[1], as[2], as[3], ps[0], ps[1], ps[2], ps[3])
			})
			if i := sameBits(dst, want); i >= 0 {
				t.Fatalf("n=%d trial=%d elem %d: avx2 %v (%#x), go %v (%#x)", n, trial, i,
					dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestDot4x4AVX2MatchesGo does the same for the 4×4 dot, including the
// empty reduction (all sixteen sums +0).
func TestDot4x4AVX2MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(43))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 8; trial++ {
			off := trial % 4
			g := edgeSlice(rng, 4*n, off)
			var ps [4][]float64
			for i := range ps {
				ps[i] = edgeSlice(rng, n+rng.Intn(3), (off+i+1)%4)
			}
			var got, want [16]float64
			for i := range got {
				got[i], want[i] = math.NaN(), math.NaN() // must be overwritten
			}
			dot4x4(g, ps[0], ps[1], ps[2], ps[3], &got)
			forceGo(func() { dot4x4(g, ps[0], ps[1], ps[2], ps[3], &want) })
			if i := sameBits(got[:], want[:]); i >= 0 {
				t.Fatalf("n=%d trial=%d sum %d: avx2 %v (%#x), go %v (%#x)", n, trial, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestDWTileAVX2MatchesGo pins ConvDWPad's eight-column register tile to
// two Go dot4x4 calls over its column halves, each sum then added to its
// gradient element, on edge-case operands at misaligned bases, with
// columns at arbitrary (overlapping) offsets into one input and gradient
// rows at a stride. The spans are h rows of w steps separated by gap
// steps whose g entries are zero, as in a padded gradient plane: dot4x4
// adds their ±0 products and the tile skips them, with the same bits.
func TestDWTileAVX2MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(61))
	const ldc = 11
	for h := 1; h <= 4; h++ {
		for w := 1; w <= 9; w++ {
			for gap := 0; gap <= 3; gap++ {
				n := (h-1)*(w+gap) + w
				g := edgeSlice(rng, 4*n, (w+gap)%4)
				for t := 0; t < n; t++ {
					if t%(w+gap) >= w {
						clear(g[4*t : 4*t+4])
					}
				}
				x := edgeSlice(rng, n+20, (h+w)%4)
				var offs [8]int
				var ps [8][]float64
				for c := range offs {
					offs[c] = rng.Intn(21)
					ps[c] = x[offs[c]:]
				}
				got := edgeSlice(rng, 3*ldc+8, gap)
				want := append([]float64(nil), got...)
				dwTileAVX2(g, x, offs[:], got, ldc, w, gap)
				forceGo(func() {
					var s [16]float64
					for half := 0; half < 2; half++ {
						q := ps[4*half:]
						dot4x4(g, q[0], q[1], q[2], q[3], &s)
						for r := 0; r < 4; r++ {
							for c := 0; c < 4; c++ {
								want[r*ldc+4*half+c] += s[4*c+r]
							}
						}
					}
				})
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("h=%d w=%d gap=%d elem %d: avx2 %v (%#x), go %v (%#x)", h, w, gap, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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

// tileEdgeShapes exercise the tiled kernel's edges: widths that leave 4-
// and 1-wide row tails (and w = 1, all tail), every channel count either
// side of the four-lane blocks for both the lane dimension and the grouped
// reduction (dX's outC ≤ 4 straight groups and outC > 4 sub-sums), and
// reductions that end in singles: 15·3² = 135 (a second gemmKC panel of
// 7) and 2·5² = 50.
func tileEdgeShapes() []convShape {
	var shapes []convShape
	for _, w := range []int{1, 2, 3, 5, 7, 9, 12, 25} {
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
// the channel counts either side of the four-lane groups and the smallest
// plane the nets allow, and on the tile edges of tileEdgeShapes, on both
// bodies, and requires bit-equal results.
func TestConvKernelsAVX2MatchGo(t *testing.T) {
	requireAVX2(t)
	shapes := append(append([]convShape(nil), defaultNetShapes[8]...), defaultNetShapes[10]...)
	shapes = append(shapes,
		convShape{3, 1, 6, 7, 3}, convShape{3, 2, 6, 7, 3}, convShape{3, 3, 6, 7, 3},
		convShape{3, 5, 6, 7, 3}, convShape{5, 5, 2, 2, 3}, convShape{8, 4, 2, 2, 3},
		// dW tile edges at the 8×8 net's plane: the remainder-row lanes of
		// outC ∈ {1, 2, 3, 5, 6}, and inC·k² (54, 45, 27, 540) not a
		// multiple of the eight-column tile, 540 across two jc panels.
		convShape{6, 1, 8, 8, 3}, convShape{6, 2, 8, 8, 3}, convShape{3, 3, 8, 8, 3},
		convShape{6, 5, 8, 8, 3}, convShape{5, 6, 8, 8, 3}, convShape{60, 5, 8, 8, 3},
	)
	shapes = append(shapes, tileEdgeShapes()...)
	rng := rand.New(rand.NewSource(47))
	for _, s := range shapes {
		t.Run(s.String(), func(t *testing.T) {
			o := newConvOperands(rng, s, 1)
			got := o.run()
			var want [4][]float64
			forceGo(func() { want = o.run() })
			for i, name := range []string{"ConvFwdPad", "ConvDWPad", "ConvDXPad", "GemmNN"} {
				if e := sameBits(got[i], want[i]); e >= 0 {
					t.Fatalf("%s elem %d: avx2 %v, go %v", name, e, got[i][e], want[i][e])
				}
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
	bodies := map[string]func(func()){"go": forceGo}
	if useAVX2 {
		bodies["avx2"] = func(f func()) { f() }
	}
	for _, s := range []convShape{{6, 5, 3, 13, 3}, {3, 2, 4, 5, 3}, {5, 4, 2, 9, 3}, {1, 4, 9, 9, 9}} {
		for body, run := range bodies {
			t.Run(s.String()+"/"+body, func(t *testing.T) {
				o := newConvOperands(rng, s, nb)
				hw := s.h * s.w
				fwd := make([]float64, s.outC*nb*hw)
				dx := make([]float64, s.inC*nb*hw)
				one := make([]float64, max(s.outC, s.inC)*hw)
				ickk := s.inC * s.k * s.k
				dw := make([]float64, s.outC*ickk)
				dwSeq := make([]float64, s.outC*ickk)
				run(func() {
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
