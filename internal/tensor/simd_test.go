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

// convOperands holds one layer's inputs in the layouts the fused kernels
// read, plus the scratch they need.
type convOperands struct {
	convShape
	weights, cols, grad, xp, gpad, gp []float64
	pout, gT, rowBuf, srow            []float64
	out, dw                           []float64 // benchmark outputs
	hpwp                              int
}

func newConvOperands(rng *rand.Rand, s convShape) *convOperands {
	o := &convOperands{convShape: s}
	hw := s.h * s.w
	ickk := s.inC * s.k * s.k
	wp := s.w + s.k - 1
	o.hpwp = (s.h + s.k - 1) * wp
	span := (s.h-1)*wp + s.w
	x := make([]float64, s.inC*hw)
	for i := range x {
		if rng.Intn(4) != 0 { // post-ReLU inputs: a quarter exact zeros
			x[i] = rng.NormFloat64()
		}
	}
	o.weights = make([]float64, s.outC*ickk)
	for i := range o.weights {
		o.weights[i] = rng.NormFloat64()
	}
	o.grad = make([]float64, s.outC*hw)
	for i := range o.grad {
		o.grad[i] = rng.NormFloat64()
	}
	o.cols = make([]float64, ickk*hw)
	Im2col(x, s.inC, s.h, s.w, s.k, (s.k-1)/2, o.cols)
	o.xp = make([]float64, s.inC*o.hpwp)
	for ic := 0; ic < s.inC; ic++ {
		PadPlane(x[ic*hw:], s.h, s.w, s.k, o.xp[ic*o.hpwp:])
	}
	lead := s.k - 1 - (s.k-1)/2
	o.gpad = make([]float64, s.outC*o.hpwp)
	for oc := 0; oc < s.outC; oc++ {
		PadPlaneLead(o.grad[oc*hw:], s.h, s.w, s.k, lead, o.gpad[oc*o.hpwp:])
	}
	o.gp = o.gpad[lead*wp+lead:]
	o.pout = make([]float64, span)
	o.gT = make([]float64, (s.outC&^3)*span)
	o.rowBuf = make([]float64, hw)
	o.srow = make([]float64, span)
	return o
}

// run evaluates ConvFwdPad, ConvDWPad, ConvDXPad and GemmNN, in that
// order, and returns their outputs.
func (o *convOperands) run() [4][]float64 {
	hw := o.h * o.w
	ickk := o.inC * o.k * o.k
	fwd := make([]float64, o.outC*hw)
	ConvFwdPad(o.weights, o.outC, o.inC, o.xp, o.hpwp, o.h, o.w, o.k, fwd, hw, o.pout)
	dw := make([]float64, o.outC*ickk)
	for i := range dw {
		dw[i] = float64(i%7) - 3 // dW accumulates
	}
	ConvDWPad(o.grad, hw, o.gp, o.hpwp, o.xp, o.hpwp, o.outC, o.inC, o.h, o.w, o.k, dw, o.gT, o.rowBuf)
	dx := make([]float64, o.inC*hw)
	ConvDXPad(o.weights, o.outC, o.inC, o.gpad, o.hpwp, o.h, o.w, o.k, dx, hw, o.pout, o.srow)
	gemm := make([]float64, o.outC*hw)
	GemmNN(o.outC, hw, ickk, o.weights, o.cols, gemm, false)
	return [4][]float64{fwd, dw, dx, gemm}
}

// TestConvKernelsAVX2MatchGo runs ConvFwdPad, ConvDWPad, ConvDXPad and
// GemmNN on every conv layer of the default 8×8 and 10×10 networks, and on
// the channel counts either side of the four-lane groups and the smallest
// plane the nets allow, on both primitive bodies, and requires bit-equal
// results.
func TestConvKernelsAVX2MatchGo(t *testing.T) {
	requireAVX2(t)
	shapes := append(append([]convShape(nil), defaultNetShapes[8]...), defaultNetShapes[10]...)
	shapes = append(shapes,
		convShape{3, 1, 6, 7, 3}, convShape{3, 2, 6, 7, 3}, convShape{3, 3, 6, 7, 3},
		convShape{3, 5, 6, 7, 3}, convShape{5, 5, 2, 2, 3}, convShape{8, 4, 2, 2, 3},
	)
	rng := rand.New(rand.NewSource(47))
	for _, s := range shapes {
		t.Run(s.String(), func(t *testing.T) {
			o := newConvOperands(rng, s)
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
