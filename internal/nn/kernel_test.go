package nn

// Tests pinning the convolution layer (fused forward and backward kernels)
// against the direct 6-loop reference (naiveForward/naiveBackward), checking its gradients by central differences, and
// guarding the zero-allocation steady state of the whole network.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"routerless/internal/tensor"
)

// convParityShapes covers odd/even spatial extents, K ∈ {1,3,5}, InC≠OutC,
// and non-square maps.
var convParityShapes = []struct{ inC, outC, k, h, w int }{
	{1, 1, 1, 2, 3},
	{1, 3, 1, 4, 5},
	{2, 5, 3, 6, 6},
	{3, 2, 3, 5, 8},
	{4, 4, 3, 7, 7},
	{2, 3, 5, 9, 6},
	{1, 2, 5, 4, 4}, // kernel wider than half the map
}

func maxAbsDiffT(a, b *tensor.Tensor) float64 {
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// naiveForward computes the convolution of one sample (InC, 1, H, W) by
// direct summation — the reference the fused path is pinned against to
// 1e-9 — allocating a fresh output tensor. It caches x, so naiveBackward
// may follow it.
func (c *Conv2D) naiveForward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != c.InC || x.Shape[1] != 1 {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want (%d,1,H,W)", x.Shape, c.InC))
	}
	c.x = x
	h, w := x.Shape[2], x.Shape[3]
	pad := (c.K - 1) / 2
	out := tensor.New(c.OutC, 1, h, w)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				s := b
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							s += c.Weight.W.Data[((oc*c.InC+ic)*c.K+ky)*c.K+kx] *
								x.Data[(ic*h+iy)*w+ix]
						}
					}
				}
				out.Data[(oc*h+oy)*w+ox] = s
			}
		}
	}
	return out
}

// naiveBackward back-propagates by direct summation from the most recent
// (naive)Forward, accumulating into Weight.G/Bias.G and returning a fresh
// dX tensor.
func (c *Conv2D) naiveBackward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.x
	h, w := x.Shape[2], x.Shape[3]
	pad := (c.K - 1) / 2
	dx := x.ZerosLike()
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				g := grad.Data[(oc*h+oy)*w+ox]
				if g == 0 {
					continue
				}
				c.Bias.G.Data[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							wi := ((oc*c.InC+ic)*c.K+ky)*c.K + kx
							xi := (ic*h+iy)*w + ix
							c.Weight.G.Data[wi] += g * x.Data[xi]
							dx.Data[xi] += g * c.Weight.W.Data[wi]
						}
					}
				}
			}
		}
	}
	return dx
}

func TestConvForwardParityWithNaive(t *testing.T) {
	for _, sh := range convParityShapes {
		rng := rand.New(rand.NewSource(int64(sh.inC*100 + sh.k)))
		l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
		// Non-zero bias so the bias path is covered too.
		for i := range l.Bias.W.Data {
			l.Bias.W.Data[i] = rng.NormFloat64()
		}
		x := tensor.Randn(rng, 1, sh.inC, 1, sh.h, sh.w)
		fast := l.Forward(x, true)
		naive := l.naiveForward(x)
		if fast.Size() != naive.Size() {
			t.Fatalf("%+v: size %d vs %d", sh, fast.Size(), naive.Size())
		}
		if d := maxAbsDiffT(fast, naive); d > 1e-9 {
			t.Fatalf("%+v: forward diff %g > 1e-9", sh, d)
		}
	}
}

func TestConvBackwardParityWithNaive(t *testing.T) {
	for _, sh := range convParityShapes {
		rng := rand.New(rand.NewSource(int64(sh.outC*100 + sh.h)))
		l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
		x := tensor.Randn(rng, 1, sh.inC, 1, sh.h, sh.w)
		grad := tensor.Randn(rng, 1, sh.outC, 1, sh.h, sh.w)

		l.Forward(x, true)
		for _, p := range l.Params() {
			p.G.Fill(0)
		}
		dxFast := cloneT(l.Backward(grad, true))
		dwFast := cloneT(l.Weight.G)
		dbFast := cloneT(l.Bias.G)

		l.naiveForward(x)
		for _, p := range l.Params() {
			p.G.Fill(0)
		}
		dxNaive := l.naiveBackward(grad)

		if d := maxAbsDiffT(dxFast, dxNaive); d > 1e-9 {
			t.Fatalf("%+v: dX diff %g > 1e-9", sh, d)
		}
		if d := maxAbsDiffT(dwFast, l.Weight.G); d > 1e-9 {
			t.Fatalf("%+v: dW diff %g > 1e-9", sh, d)
		}
		if d := maxAbsDiffT(dbFast, l.Bias.G); d > 1e-9 {
			t.Fatalf("%+v: dB diff %g > 1e-9", sh, d)
		}
	}
}

// TestConvGradientCheckSmall runs the central-difference check on small
// conv layers through the fused kernels, including K=1 and a non-square map
// (TestConv2DGradients in layer_test.go covers the 3×3 case).
func TestConvGradientCheckSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range []struct{ inC, outC, k, h, w int }{
		{1, 2, 1, 3, 4},
		{2, 3, 3, 4, 5},
	} {
		l := NewConv2D(rng, "c", sh.inC, sh.outC, sh.k)
		x := tensor.Randn(rng, 1, sh.inC, 1, sh.h, sh.w)
		checkLayerGradients(t, l, x, 1e-4)
	}
}

// TestTrainBatchGradientCheck validates the batched training path against
// ground truth rather than against the one-sample calls: parameter
// gradients accumulated by one training Forward + Backward must match
// central differences of a scalar loss over the batch. The loss reads each
// head through an invertible link — Σ c·log p for the softmax groups (so
// dL/dlogit_j = c_j − p_j·Σc), c·atanh(Dir) for the tanh direction head (so
// dL/dz = c at the pre-activation Backward expects), and c·V for the
// linear value head — making the exact head gradients computable from the
// forward outputs alone. Train-mode BatchNorm only advances its running EMA
// (per-sample batch statistics feed the normalization), so the repeated
// numeric evaluations do not perturb what is being differentiated.
func TestTrainBatchGradientCheck(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 11)
	perturbNet(net, 13)
	rng := rand.New(rand.NewSource(17))
	const nb = 3
	nc := net.Cfg.N
	states := randStates(rng, 4, nb)
	cw := make([]float64, nb*4*nc)
	cd := make([]float64, nb)
	cv := make([]float64, nb)
	for i := range cw {
		cw[i] = rng.NormFloat64()
	}
	for b := 0; b < nb; b++ {
		cd[b], cv[b] = rng.NormFloat64(), rng.NormFloat64()
	}

	outs := make([]Output, nb)
	loss := func() float64 {
		net.Forward(states, outs, true)
		s := 0.0
		for b := range outs {
			o := &outs[b]
			for g := 0; g < 4; g++ {
				for i, p := range o.CoordProbs[g] {
					s += cw[b*4*nc+g*nc+i] * math.Log(p)
				}
			}
			s += cd[b]*math.Atanh(o.Dir) + cv[b]*o.Value
		}
		return s
	}

	net.ZeroGrads()
	net.Forward(states, outs, true)
	flat := make([]float64, nb*4*nc)
	for b := range outs {
		for g := 0; g < 4; g++ {
			row := cw[b*4*nc+g*nc : b*4*nc+(g+1)*nc]
			tot := 0.0
			for _, c := range row {
				tot += c
			}
			for j, p := range outs[b].CoordProbs[g] {
				flat[b*4*nc+g*nc+j] = row[j] - p*tot
			}
		}
	}
	net.Backward(flat, cd, cv)
	grads := net.GetGrads()

	weights := net.GetWeights()
	const eps = 1e-5
	for k := 0; k < 60; k++ {
		i := rng.Intn(len(weights))
		orig := weights[i]
		weights[i] = orig + eps
		net.SetWeights(weights)
		lp := loss()
		weights[i] = orig - eps
		net.SetWeights(weights)
		lm := loss()
		weights[i] = orig
		net.SetWeights(weights)
		want := (lp - lm) / (2 * eps)
		if math.Abs(grads[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("weight %d: analytic grad %v, central difference %v", i, grads[i], want)
		}
	}
}

// TestNetworkSteadyStateAllocs asserts the warmed-up one-sample hot path
// allocates nothing: every tensor, padded plane, and output slice is
// arena-owned and reused. The bound is exactly 0 allocations per
// Forward+Backward cycle; raise it only with a comment justifying each new
// allocation.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 1)
	states := [][]float64{randomHopMatrix(rand.New(rand.NewSource(5)), 4)}
	outs := make([]Output, 1)
	dl := make([]float64, 4*4)
	for g := 0; g < 4; g++ {
		dl[g*4+g] = 0.3
	}
	dDir, dVal := []float64{0.2}, []float64{-0.4}
	// Warm up: size every scratch buffer in the arena.
	for i := 0; i < 3; i++ {
		net.Forward(states, outs, true)
		net.Backward(dl, dDir, dVal)
	}
	const maxAllocs = 0.0
	avg := testing.AllocsPerRun(20, func() {
		net.Forward(states, outs, true)
		net.Backward(dl, dDir, dVal)
	})
	if avg > maxAllocs {
		t.Fatalf("steady-state forward+backward allocates %.1f times per run, want <= %v",
			avg, maxAllocs)
	}
}

// TestWorkerLoopSteadyStateAllocs covers the surrounding training-step
// machinery the drl workers run per episode: gradient extraction and
// weight loading must also be allocation-free.
func TestWorkerLoopSteadyStateAllocs(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 1)
	grads := make([]float64, net.NumParams())
	weights := net.GetWeights()
	avg := testing.AllocsPerRun(20, func() {
		net.CopyGradsInto(grads)
		net.SetWeights(weights)
		net.ZeroGrads()
	})
	if avg > 0 {
		t.Fatalf("grad/weight sync allocates %.1f times per run, want 0", avg)
	}
}

func TestScratchFootprintReported(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 1)
	in := randomHopMatrix(rand.New(rand.NewSource(6)), 4)
	forward1(net, in, true)
	if net.Scratch().ScratchFloats() == 0 {
		t.Fatal("arena reports no scratch after a forward pass")
	}
	before := net.Scratch().ScratchFloats()
	forward1(net, in, true)
	if got := net.Scratch().ScratchFloats(); got != before {
		t.Fatalf("scratch grew across identical forwards: %d -> %d", before, got)
	}
}

// BenchmarkConvNaive pits the production convolution (the fused forward
// and backward kernels, one sample) against the naive reference on one
// mid-sized layer (16→32 channels, 3×3 kernel, 32×32 map), forward plus
// backward.
func BenchmarkConvNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 1, 16, 1, 32, 32)
	grad := tensor.Randn(rng, 1, 32, 1, 32, 32)
	b.Run("fast", func(b *testing.B) {
		l := NewConv2D(rng, "c", 16, 32, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Forward(x, true)
			l.Backward(grad, true)
		}
	})
	b.Run("naive", func(b *testing.B) {
		l := NewConv2D(rng, "c", 16, 32, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.naiveForward(x)
			l.naiveBackward(grad)
		}
	})
}

// cloneT deep-copies a tensor.
func cloneT(x *tensor.Tensor) *tensor.Tensor {
	c := x.ZerosLike()
	copy(c.Data, x.Data)
	return c
}
