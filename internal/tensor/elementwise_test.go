package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// nanValues are NaNs of both signs, quiet and signaling, with payloads.
var nanValues = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001),
	math.Float64frombits(0x7ff0000000000003), math.Float64frombits(0xfff0000000000005),
}

// elemSlice is edgeSlice with NaNs of both signs mixed in.
func elemSlice(rng *rand.Rand, n, off int) []float64 {
	s := edgeSlice(rng, n, off)
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = nanValues[rng.Intn(len(nanValues))]
		}
	}
	return s
}

// noNaNPairs drops the NaNs of b where a holds one, so no element of a
// binary kernel sees two NaN operands: which payload x86 keeps then is
// the one thing the bodies may disagree on (see simd.go).
func noNaNPairs(a, b []float64) {
	for i := range b {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			b[i] = 1
		}
	}
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%s elem %d: avx2 %v (%#x), go %v (%#x)", what, i, got[i],
			math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// elementwiseCase runs one elementwise kernel on every length through 40
// (every vector and Go tail) at misaligned offsets, on the AVX2 body and
// on the Go loops, and compares both outputs dst and aux. The inputs a, b
// and c hold edge values and NaNs, and p four BatchNorm-style scalars.
func elementwiseCase(t *testing.T, seed int64, run func(dst, aux, a, b, c []float64, p [4]float64)) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 6; trial++ {
			a, b, c := elemSlice(rng, n, trial%4), elemSlice(rng, n, (trial+1)%4), elemSlice(rng, n, (trial+2)%4)
			noNaNPairs(a, b)
			p := bnParams(rng)
			var got, want [2][]float64
			for i := range got {
				got[i], want[i] = nanSlice(n), nanSlice(n)
			}
			onLevel(t, levelAVX2, func() { run(got[0], got[1], a, b, c, p) })
			onLevel(t, levelGo, func() { run(want[0], want[1], a, b, c, p) })
			for i := range got {
				requireBits(t, "n="+strconv.Itoa(n)+" output "+strconv.Itoa(i), got[i], want[i])
			}
		}
	}
}

func TestReLUAVX2MatchesGo(t *testing.T) {
	elementwiseCase(t, 101, func(dst, _, a, _, _ []float64, _ [4]float64) { ReLU(dst, a) })
}

// zeroEvery sets every k-th element of s from i0 to +0.
func zeroEvery(s []float64, i0, k int) []float64 {
	for i := i0; i < len(s); i += k {
		s[i] = 0
	}
	return s
}

// The mask reads +0, −0 and NaN outputs as well as ordinary ones.
func TestReLUMaskAVX2MatchesGo(t *testing.T) {
	elementwiseCase(t, 103, func(dst, _, a, b, _ []float64, _ [4]float64) {
		ReLUMask(dst, a, zeroEvery(b, 0, 3))
	})
}

// Add, AddReLU and AddConst (by a finite and an infinite constant).
func TestAddAVX2MatchesGo(t *testing.T) {
	elementwiseCase(t, 107, func(dst, aux, a, b, _ []float64, p [4]float64) {
		Add(dst, a, b)
		AddReLU(aux, a, b)
	})
	elementwiseCase(t, 113, func(dst, aux, a, _, _ []float64, p [4]float64) {
		copy(dst, a)
		AddConst(dst, p[0])
		copy(aux, a)
		AddConst(aux, math.Inf(-1))
	})
}

// bnParams draws BatchNorm scalars from edgeValues: signed zeros,
// subnormals, huge values and infinities, never a NaN.
func bnParams(rng *rand.Rand) [4]float64 {
	var p [4]float64
	for i := range p {
		if rng.Intn(2) == 0 {
			p[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			p[i] = rng.NormFloat64()
		}
	}
	return p
}

// BNApply with x̂ (the training forward) and without (eval), each with
// and without the ReLU.
func TestBNApplyAVX2MatchesGo(t *testing.T) {
	for _, relu := range []bool{false, true} {
		elementwiseCase(t, 127, func(dst, aux, a, _, _ []float64, p [4]float64) {
			BNApply(dst, aux, a, p[0], p[1], p[2], p[3], relu)
		})
		elementwiseCase(t, 129, func(dst, _, a, _, _ []float64, p [4]float64) {
			BNApply(dst, nil, a, p[0], p[1], p[2], p[3], relu)
		})
	}
}

// BNBackward without and with the folded ReLU mask.
func TestBNBackwardAVX2MatchesGo(t *testing.T) {
	elementwiseCase(t, 131, func(dst, aux, a, b, c []float64, p [4]float64) {
		BNBackward(dst, a, b, nil, p[0], 17, p[1], p[2])
		BNBackward(aux, a, b, zeroEvery(c, 1, 3), p[0], 17, p[1], p[2])
	})
}

// planeCase runs one per-plane kernel over odd and even plane sizes and
// plane counts 1..19, which leave every remainder in the last group of
// four lanes. A chain that meets two different NaNs (an input NaN of
// either sign, or one the chain makes from Inf − Inf) may keep either:
// the Go compiler picks the operand order of a commutative add, so that
// is the one freedom simd.go allows. Every other result must match bit
// for bit.
func planeCase(t *testing.T, seed int64, outs int, run func(out [][]float64, x, y, z []float64, n int)) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 17, 25, 33, 64} {
		for np := 1; np <= 19; np++ {
			x, y, z := edgeSlice(rng, np*n, 1), edgeSlice(rng, np*n, 2), edgeSlice(rng, np*n, 3)
			for i := range x {
				if rng.Intn(50) == 0 {
					x[i] = nanValues[rng.Intn(len(nanValues))]
				}
				if i%5 == 2 {
					z[i] = 0
				}
			}
			got, want := make([][]float64, outs), make([][]float64, outs)
			for i := range got {
				got[i], want[i] = nanSlice(np), nanSlice(np)
			}
			onLevel(t, levelAVX2, func() { run(got, x, y, z, n) })
			onLevel(t, levelGo, func() { run(want, x, y, z, n) })
			for i := range got {
				for j := range got[i] {
					if math.IsNaN(got[i][j]) && math.IsNaN(want[i][j]) {
						got[i][j] = want[i][j]
					}
				}
				requireBits(t, "n="+strconv.Itoa(n)+" planes="+strconv.Itoa(np)+" result "+strconv.Itoa(i), got[i], want[i])
			}
		}
	}
}

func TestPlaneSumsAVX2MatchesGo(t *testing.T) {
	planeCase(t, 137, 1, func(out [][]float64, x, _, _ []float64, n int) { PlaneSums(x, n, out[0]) })
}

func TestPlaneMomentsAVX2MatchesGo(t *testing.T) {
	planeCase(t, 139, 2, func(out [][]float64, x, _, _ []float64, n int) { PlaneMoments(x, n, out[0], out[1]) })
}

// PlaneGradSums with and without the ReLU mask (z, +0 at every fifth
// element).
func TestPlaneGradSumsAVX2MatchesGo(t *testing.T) {
	planeCase(t, 149, 4, func(out [][]float64, x, y, z []float64, n int) {
		PlaneGradSums(x, y, nil, n, out[0], out[1])
		PlaneGradSums(x, y, z, n, out[2], out[3])
	})
}

// poolValues make windows with ties, signed zeros, infinities and NaNs
// of both signs in every position.
var poolValues = []float64{0, math.Copysign(0, -1), 1, -1, 2, 5e-324, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000001)}

// TestMaxPoolRowAVX2MatchesGo pins the pooling row, maxima and argmax bytes, to the Go
// loop on every row length through 20, with and without the argmax.
func TestMaxPoolRowAVX2MatchesGo(t *testing.T) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(151))
	for ow := 0; ow <= 20; ow++ {
		for trial := 0; trial < 20; trial++ {
			r0, r1 := make([]float64, 2*ow+1), make([]float64, 2*ow+1)
			for i := range r0 {
				r0[i] = poolValues[rng.Intn(len(poolValues))]
				r1[i] = poolValues[rng.Intn(len(poolValues))]
			}
			got, want := nanSlice(ow), nanSlice(ow)
			gw, ww := make([]uint8, ow), make([]uint8, ow)
			for i := range gw {
				gw[i], ww[i] = 9, 9
			}
			onLevel(t, levelAVX2, func() { MaxPoolRow(got, gw, r0, r1) })
			onLevel(t, levelGo, func() { MaxPoolRow(want, ww, r0, r1) })
			requireBits(t, "ow="+strconv.Itoa(ow), got, want)
			if string(gw) != string(ww) {
				t.Fatalf("ow=%d: argmax %v, go %v", ow, gw, ww)
			}
			onLevel(t, levelAVX2, func() { MaxPoolRow(got, nil, r0, r1) })
			requireBits(t, "ow="+strconv.Itoa(ow)+" eval", got, want)
		}
	}
}

// TestMaxPoolBackRowAVX2MatchesGo pins the pooling gradient row, every position of
// both input rows written, on gradients with signed zeros and NaNs.
func TestMaxPoolBackRowAVX2MatchesGo(t *testing.T) {
	onLevel(t, levelAVX2, func() {})
	rng := rand.New(rand.NewSource(157))
	for ow := 0; ow <= 20; ow++ {
		for trial := 0; trial < 20; trial++ {
			g := elemSlice(rng, ow, trial%4)
			which := make([]uint8, ow)
			for i := range which {
				which[i] = uint8(rng.Intn(4))
			}
			got, want := nanSlice(4*ow), nanSlice(4*ow)
			onLevel(t, levelAVX2, func() { MaxPoolBackRow(got[:2*ow], got[2*ow:], g, which) })
			onLevel(t, levelGo, func() { MaxPoolBackRow(want[:2*ow], want[2*ow:], g, which) })
			requireBits(t, "ow="+strconv.Itoa(ow), got, want)
		}
	}
}
