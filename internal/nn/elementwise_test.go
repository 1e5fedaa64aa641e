package nn

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"routerless/internal/tensor"
)

// refBatchNorm is the plane-at-a-time BatchNorm the production layer
// restructured: one (channel, sample) plane after another, three passes
// per training plane, and Backward's g·(1/σ)/n evaluated per element. It
// shares the parameters and running statistics of the *BatchNorm it
// wraps (updating the statistics in place) and keeps its own caches.
type refBatchNorm struct {
	*BatchNorm
	xhat, invSD []float64
}

func (b *refBatchNorm) forward(x *tensor.Tensor, train bool) []float64 {
	nb := x.Shape[1]
	n := x.Shape[2] * x.Shape[3]
	out := make([]float64, x.Size())
	if train {
		b.xhat = make([]float64, x.Size())
		b.invSD = make([]float64, b.C*nb)
	}
	for c := 0; c < b.C; c++ {
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			ch := x.Data[p : p+n]
			dst := out[p : p+n]
			if !train {
				mean := b.RunMean[c]
				inv := 1 / math.Sqrt(b.RunVar[c]+b.Eps)
				for i, v := range ch {
					dst[i] = g*((v-mean)*inv) + beta
				}
				continue
			}
			var mean, varc float64
			for _, v := range ch {
				mean += v
			}
			mean /= float64(n)
			for _, v := range ch {
				d := v - mean
				varc += d * d
			}
			varc /= float64(n)
			b.RunMean[c] = b.Momentum*b.RunMean[c] + (1-b.Momentum)*mean
			b.RunVar[c] = b.Momentum*b.RunVar[c] + (1-b.Momentum)*varc
			inv := 1 / math.Sqrt(varc+b.Eps)
			b.invSD[c*nb+bi] = inv
			xhat := b.xhat[p : p+n]
			for i, v := range ch {
				xh := (v - mean) * inv
				xhat[i] = xh
				dst[i] = g*xh + beta
			}
		}
	}
	return out
}

func (b *refBatchNorm) backward(grad *tensor.Tensor) []float64 {
	nb := grad.Shape[1]
	n := grad.Shape[2] * grad.Shape[3]
	dx := make([]float64, grad.Size())
	for c := 0; c < b.C; c++ {
		g := b.Gamma.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			var sumDy, sumDyXhat float64
			for i := 0; i < n; i++ {
				dy := grad.Data[p+i]
				sumDy += dy
				sumDyXhat += dy * b.xhat[p+i]
			}
			b.Gamma.G.Data[c] += sumDyXhat
			b.Beta.G.Data[c] += sumDy
			inv := b.invSD[c*nb+bi]
			for i := 0; i < n; i++ {
				dy := grad.Data[p+i]
				xh := b.xhat[p+i]
				dx[p+i] = g * inv / float64(n) *
					(float64(n)*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// randomBatchNorm returns a BatchNorm on c channels with random scale,
// shift and running statistics, and a reference over an independent copy
// of the same state.
func randomBatchNorm(rng *rand.Rand, c int) (*BatchNorm, *refBatchNorm) {
	bn := NewBatchNorm("bn", c)
	for i := 0; i < c; i++ {
		bn.Gamma.W.Data[i] = rng.NormFloat64()
		bn.Beta.W.Data[i] = rng.NormFloat64()
		bn.Gamma.G.Data[i] = rng.NormFloat64() // gradients accumulate
		bn.Beta.G.Data[i] = rng.NormFloat64()
		bn.RunMean[i] = rng.NormFloat64()
		bn.RunVar[i] = rng.ExpFloat64()
	}
	ref := NewBatchNorm("bn", c)
	for _, p := range [][2][]float64{
		{ref.Gamma.W.Data, bn.Gamma.W.Data}, {ref.Beta.W.Data, bn.Beta.W.Data},
		{ref.Gamma.G.Data, bn.Gamma.G.Data}, {ref.Beta.G.Data, bn.Beta.G.Data},
		{ref.RunMean, bn.RunMean}, {ref.RunVar, bn.RunVar},
	} {
		copy(p[0], p[1])
	}
	return bn, &refBatchNorm{BatchNorm: ref}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBatchNormMatchesReference pins the four-plane BatchNorm to the
// plane-at-a-time reference bit for bit: eval and training outputs, x̂,
// 1/σ and the running statistics over two training steps, then the
// Gamma/Beta gradients and dx. C ∈ 1..9 at B = 1 covers every plane count
// 1..9 (every remainder of the four-plane groups); B = 3 and 16 put groups
// across channel boundaries and run the training tile.
func TestBatchNormMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, nb := range []int{1, 3, 16} {
		for c := 1; c <= 9; c++ {
			t.Run(strconv.Itoa(c)+"x"+strconv.Itoa(nb), func(t *testing.T) {
				bn, ref := randomBatchNorm(rng, c)
				h, w := 3, 5
				if nb == 16 {
					h, w = 8, 8
				}
				x := tensor.Randn(rng, 2, c, nb, h, w)
				for i := range x.Data {
					x.Data[i] += float64(i%5) - 2 // planes with different means
				}
				requireSameBits(t, "eval out", bn.Forward(x, false).Data, ref.forward(x, false))
				for step := 0; step < 2; step++ {
					requireSameBits(t, "train out", bn.Forward(x, true).Data, ref.forward(x, true))
					requireSameBits(t, "xhat", bn.xhat, ref.xhat)
					requireSameBits(t, "invSD", bn.invSD, ref.invSD)
					requireSameBits(t, "RunMean", bn.RunMean, ref.RunMean)
					requireSameBits(t, "RunVar", bn.RunVar, ref.RunVar)
				}
				grad := tensor.Randn(rng, 1, c, nb, h, w)
				requireSameBits(t, "dx", bn.Backward(grad, true).Data, ref.backward(grad))
				requireSameBits(t, "Gamma.G", bn.Gamma.G.Data, ref.Gamma.G.Data)
				requireSameBits(t, "Beta.G", bn.Beta.G.Data, ref.Beta.G.Data)
				requireSameBits(t, "eval out after training", bn.Forward(x, false).Data, ref.forward(x, false))
			})
		}
	}
}

// TestConvBiasGradMatchesReference pins Conv2D.Backward's bias gradient,
// summed four planes at a time, to one plane-at-a-time chain per
// (channel, sample) plane added in ascending order, for plane counts on
// both sides of the groups.
func TestConvBiasGradMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, outC := range []int{1, 2, 3, 5} {
		for _, nb := range []int{1, 3} {
			c := NewConv2D(rng, "c", 2, outC, 3)
			for i := range c.Bias.G.Data {
				c.Bias.G.Data[i] = rng.NormFloat64()
			}
			want := append([]float64(nil), c.Bias.G.Data...)
			x := tensor.Randn(rng, 1, 2, nb, 4, 5)
			c.Forward(x, true)
			grad := tensor.Randn(rng, 1, outC, nb, 4, 5)
			c.Backward(grad, false)
			hw := 4 * 5
			for oc := 0; oc < outC; oc++ {
				for bi := 0; bi < nb; bi++ {
					s := 0.0
					for _, g := range grad.Data[(oc*nb+bi)*hw : (oc*nb+bi+1)*hw] {
						s += g
					}
					want[oc] += s
				}
			}
			requireSameBits(t, "bias grad "+strconv.Itoa(outC)+"x"+strconv.Itoa(nb), c.Bias.G.Data, want)
		}
	}
}

// TestReLUEdgeCases pins ReLU on signed zeros, NaNs and infinities: the
// forward gives +0 for every input ≤ 0 (−0 included) and passes positive
// values bit for bit and NaN as NaN, in both modes; the backward passes
// the gradient's bits exactly where the forward passed its input and +0
// elsewhere.
func TestReLUEdgeCases(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000001)
	in := []float64{math.Copysign(0, -1), 0, math.NaN(), negNaN, math.Inf(1), math.Inf(-1),
		-1, 1, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64}
	grad := []float64{2, -3, math.Copysign(0, -1), 7, math.NaN(), 11, 13, math.Inf(-1), -17, 19,
		math.Copysign(0, -1), 23}
	x := &tensor.Tensor{Shape: []int{len(in)}, Data: in}
	r := NewReLU()
	for _, train := range []bool{false, true} {
		out := r.Forward(x, train).Data
		for i, v := range in {
			switch {
			case math.IsNaN(v):
				if !math.IsNaN(out[i]) {
					t.Errorf("train=%v: ReLU(%v) = %v, want NaN", train, v, out[i])
				}
			case v > 0:
				if math.Float64bits(out[i]) != math.Float64bits(v) {
					t.Errorf("train=%v: ReLU(%v) = %v, want the input", train, v, out[i])
				}
			default:
				if math.Float64bits(out[i]) != 0 {
					t.Errorf("train=%v: ReLU(%v) = %v (%#x), want +0", train, v, out[i], math.Float64bits(out[i]))
				}
			}
		}
	}
	dx := r.Backward(&tensor.Tensor{Shape: []int{len(grad)}, Data: grad}, true).Data
	for i, v := range in {
		want := uint64(0)
		if v > 0 || math.IsNaN(v) {
			want = math.Float64bits(grad[i])
		}
		if got := math.Float64bits(dx[i]); got != want {
			t.Errorf("ReLU'(%v)·%v = %v (%#x), want %#x", v, grad[i], dx[i], got, want)
		}
	}
}

// refMaxPool is the branching MaxPool the production layer restructured:
// a first-element start, then a strict > over the window in row-major
// order, and a backward that scatters +0 + g into a zeroed input.
func refMaxPool(x *tensor.Tensor, grad []float64) (out, dx []float64) {
	c, nb, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	out = make([]float64, c*nb*oh*ow)
	dx = make([]float64, x.Size())
	for plane := 0; plane < c*nb; plane++ {
		src := x.Data[plane*h*w : (plane+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := 2*oy*w + 2*ox
				best := src[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (2*oy+dy)*w + 2*ox + dx
						if src[idx] > best {
							best = src[idx]
							bestIdx = idx
						}
					}
				}
				oi := plane*oh*ow + oy*ow + ox
				out[oi] = best
				dx[plane*h*w+bestIdx] += grad[oi]
			}
		}
	}
	return out, dx
}

// TestMaxPoolMatchesReference pins the branch-free MaxPool to the
// branching reference bit for bit, on odd and even planes whose windows
// hold ties, signed zeros, infinities and NaNs in every position, with
// signed-zero gradients.
func TestMaxPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, sz := range [][2]int{{2, 2}, {4, 6}, {5, 7}, {8, 8}} {
		x := tensor.New(3, 2, sz[0], sz[1])
		for i := range x.Data {
			x.Data[i] = vals[rng.Intn(len(vals))]
		}
		p := NewMaxPool()
		eval := append([]float64(nil), p.Forward(x, false).Data...)
		out := p.Forward(x, true)
		grad := tensor.Randn(rng, 1, out.Shape...)
		for i := range grad.Data {
			if rng.Intn(4) == 0 {
				grad.Data[i] = math.Copysign(0, -1)
			}
		}
		wantOut, wantDX := refMaxPool(x, grad.Data)
		tag := strconv.Itoa(sz[0]) + "x" + strconv.Itoa(sz[1])
		requireSameBits(t, "eval out "+tag, eval, wantOut)
		requireSameBits(t, "train out "+tag, out.Data, wantOut)
		requireSameBits(t, "dx "+tag, p.Backward(grad, true).Data, wantDX)
	}
}

// TestBatchNormReLUMatchesComposition pins the fused BN→ReLU layer to a
// BatchNorm followed by a ReLU layer bit for bit: eval and training
// outputs, running statistics, then dx and the Gamma/Beta gradients of a
// gradient that is nonzero where the ReLU output is +0 too, on every
// kernel body the host has.
func TestBatchNormReLUMatchesComposition(t *testing.T) {
	for _, body := range []string{"go", "avx2"} {
		t.Run(body, func(t *testing.T) {
			restore, ok := tensor.SetSIMD(body)
			if !ok {
				t.Skipf("host has no %s body", body)
			}
			defer restore()
			rng := rand.New(rand.NewSource(83))
			for _, sz := range [][3]int{{3, 1, 5}, {5, 3, 7}, {4, 16, 9}} {
				c, nb, side := sz[0], sz[1], sz[2]
				fused, ref := randomBatchNorm(rng, c)
				fused.relu = true
				relu := NewReLU()
				x := tensor.Randn(rng, 2, c, nb, side, side)
				composed := func(train bool) []float64 { return relu.Forward(ref.BatchNorm.Forward(x, train), train).Data }
				requireSameBits(t, "eval out", fused.Forward(x, false).Data, composed(false))
				for step := 0; step < 2; step++ {
					requireSameBits(t, "train out", fused.Forward(x, true).Data, composed(true))
					requireSameBits(t, "RunMean", fused.RunMean, ref.RunMean)
					requireSameBits(t, "RunVar", fused.RunVar, ref.RunVar)
				}
				grad := tensor.Randn(rng, 1, c, nb, side, side)
				requireSameBits(t, "dx", fused.Backward(grad, true).Data,
					ref.BatchNorm.Backward(relu.Backward(grad, true), true).Data)
				requireSameBits(t, "Gamma.G", fused.Gamma.G.Data, ref.Gamma.G.Data)
				requireSameBits(t, "Beta.G", fused.Beta.G.Data, ref.Beta.G.Data)
			}
		})
	}
}

// BenchmarkLayerTrain times one training forward plus backward of each
// ReLU, BatchNorm, fused BatchNorm→ReLU, MaxPool and conv layer shape of
// the default 8×8 search net (nn.Config{8, 4, 3}) at the B = 16 training
// tile, plus the first stage of the default 10×10 net (4c_100), and
// reports ns per output element. The elementwise layers run once on each
// of their kernel bodies the host has (go, avx2; AVX-512 hosts run the
// avx2 one); the conv rows run the host's widest body, and tensor's
// BenchmarkConvFused rows time each conv body.
func BenchmarkLayerTrain(b *testing.B) {
	const nb = 16
	rng := rand.New(rand.NewSource(5))
	type layerCase struct {
		name    string
		l       Layer
		c, side int // input channels and plane side
	}
	var cases []layerCase
	for _, s := range []struct{ c, side int }{{4, 64}, {4, 100}, {8, 32}, {8, 16}, {16, 16}, {16, 8}, {32, 8}} {
		tag := strconv.Itoa(s.c) + "c_" + strconv.Itoa(s.side)
		cases = append(cases,
			layerCase{"ReLU/" + tag, NewReLU(), s.c, s.side},
			layerCase{"BatchNorm/" + tag, NewBatchNorm("bn", s.c), s.c, s.side},
			layerCase{"BatchNormReLU/" + tag, newBatchNormReLU("bn", s.c), s.c, s.side})
	}
	for _, s := range []struct{ c, side int }{{4, 64}, {4, 100}, {8, 32}, {16, 16}} {
		cases = append(cases, layerCase{"MaxPool/" + strconv.Itoa(s.c) + "c_" + strconv.Itoa(s.side), NewMaxPool(), s.c, s.side})
	}
	for _, s := range []struct{ inC, outC, side, k int }{
		{1, 4, 64, 9}, {4, 4, 64, 3}, {4, 8, 32, 3}, {8, 8, 16, 3}, {8, 16, 16, 3},
		{16, 16, 8, 3}, {16, 32, 8, 3}, {32, 32, 8, 3}, {32, 2, 8, 3}, {32, 1, 8, 3},
	} {
		name := "Conv2D/" + strconv.Itoa(s.inC) + "c" + strconv.Itoa(s.outC) + "_" + strconv.Itoa(s.side) + "k" + strconv.Itoa(s.k)
		cases = append(cases, layerCase{name, NewConv2D(rng, "c", s.inC, s.outC, s.k), s.inC, s.side})
	}
	for _, lc := range cases {
		x := tensor.Randn(rng, 1, lc.c, nb, lc.side, lc.side)
		out := lc.l.Forward(x, true)
		grad := tensor.Randn(rng, 1, out.Shape...)
		_, isConv := lc.l.(*Conv2D)
		bodies := []string{"go", "avx2"}
		if isConv {
			bodies = []string{""}
		}
		for _, body := range bodies {
			name := lc.name
			if body != "" {
				name += "/" + body
			}
			b.Run(name, func(b *testing.B) {
				if body != "" {
					restore, ok := tensor.SetSIMD(body)
					if !ok {
						b.Skipf("host has no %s body", body)
					}
					defer restore()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					lc.l.Forward(x, true)
					// A conv's input gradient is skipped only for the stem.
					lc.l.Backward(grad, !isConv || lc.c > 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(out.Size()), "ns/elem")
			})
		}
	}
}
