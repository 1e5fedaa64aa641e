// Package nn is a from-scratch neural-network library implementing exactly
// the components the paper's DNN needs (Fig. 6): 2-D convolutions, batch
// normalization, max pooling, ReLU, fully connected layers, residual
// blocks and softmax/tanh heads. The SGD update itself runs on the flat
// weight vector of drl's parameter server.
//
// Every layer has one batched Forward(x, train) and one Backward(grad,
// needDX); a single example is the B=1 call. Spatial activations use the
// channel-major layout (C, B, H, W): all B samples of a channel are
// contiguous, so per-channel layers sweep one contiguous row per channel
// and one fused conv kernel call covers the whole batch. Fully connected
// layers take sample-major (B, In) rows.
//
// train selects the BatchNorm rule and whether training caches are
// written. In training mode each (channel, sample) plane is normalized by
// its own statistics and the running-statistics EMA advances once per
// sample in ascending sample order, and every layer keeps what Backward
// reads: the conv's zero-padded input planes, BatchNorm x̂, the ReLU
// output, the MaxPool argmax positions. Inference reads the running
// statistics and writes no cache. Each mode has its own scratch set, so an
// inference Forward between a training Forward and its Backward disturbs
// nothing.
//
// A sample's result does not depend on B or on its position in the batch:
// the conv kernels (tensor.ConvFwdPad, ConvDWPad, ConvDXPad) keep each
// element's reduction order fixed, Dense rows run one dot product each,
// and the remaining layers are elementwise or per plane. Backward
// accumulates parameter gradients one sample at a time in ascending
// sample order, so one batch of B accumulates the same bits as B
// in-order B=1 steps; rl.A2C relies on this to train in tiles.
//
// Every layer draws outputs, gradients, and conv scratch from an Arena,
// so warmed-up Forward/Backward cycles allocate nothing; a returned
// tensor is owned by the layer and valid until its next call in the same
// mode.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"routerless/internal/tensor"
)

// Param couples a learnable weight tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: w.ZerosLike()}
}

// Layer is a differentiable module. Backward consumes dL/d(output) of the
// most recent training Forward, accumulates parameter gradients, and
// returns dL/d(input); with needDX false it may skip the input gradient
// and return nil. Layers are not reentrant and not goroutine-safe.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor
	Params() []*Param
}

// mode indexes a layer's per-mode scratch: 0 serves inference forwards,
// 1 training forwards.
func mode(train bool) int {
	if train {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a 2-D convolution with stride 1 and zero "same" padding, run
// by the fused padded-plane kernels of internal/tensor.
type Conv2D struct {
	InC, OutC, K int
	Weight       *Param // shape (OutC, InC, K, K)
	Bias         *Param // shape (OutC)

	arena *Arena
	out   [2]*tensor.Tensor
	pad   [2][]float64   // zero-padded input planes; pad[1] is kept for Backward
	x     *tensor.Tensor // input of the last training Forward
	dx    *tensor.Tensor
}

// NewConv2D builds a conv layer with He-initialized weights.
func NewConv2D(rng *rand.Rand, name string, inC, outC, k int) *Conv2D {
	std := math.Sqrt(2.0 / float64(inC*k*k))
	return &Conv2D{
		InC: inC, OutC: outC, K: k,
		Weight: newParam(name+".w", tensor.Randn(rng, std, outC, inC, k, k)),
		Bias:   newParam(name+".b", tensor.New(outC)),
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward implements Layer: x is (InC, B, H, W), the result (OutC, B, H,
// W) = W∗x + b. The input planes are copied once into zero-padded planes
// and one tensor.ConvFwdPad call runs all B samples; ConvFwdPad is
// bit-identical per sample to the lowered W·im2col(x) GEMM (tensor's
// TestConvFusedMatchesLowered). It needs H·W > 1; the networks never pool
// below 2×2.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want (%d,B,H,W)", x.Shape, c.InC))
	}
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	m := mode(train)
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	if train {
		c.x = x
		// Size the padded gradient planes Backward shares here: the forward
		// pass reaches the widest layer (the stem) first, so the arena
		// allocates them once instead of growing them layer by layer.
		a.slice(&a.convGrad, c.OutC*nb*hpwp)
	}
	out := a.tensorFor(&c.out[m], c.OutC, nb, h, w)
	xp := a.slice(&c.pad[m], c.InC*nb*hpwp)
	for p := 0; p < c.InC*nb; p++ {
		tensor.PadPlane(x.Data[p*hw:(p+1)*hw], h, w, c.K, xp[p*hpwp:(p+1)*hpwp])
	}
	work, offs := a.convScratch(c.OutC, c.InC, h, w, c.K)
	tensor.ConvFwdPad(c.Weight.W.Data, c.OutC, c.InC, nb, xp, hpwp, h, w, c.K, out.Data, hw, work, offs)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		if b == 0 {
			continue
		}
		orow := out.Data[oc*nb*hw : (oc+1)*nb*hw]
		for i := range orow {
			orow[i] += b
		}
	}
	return out
}

// Backward implements Layer through the fused padded-plane kernels. Each
// (channel, sample) gradient plane is padded once, by
// tensor.PadGradPlane, and both kernels read the padded planes:
// tensor.ConvDWPad accumulates dW one sample at a time in ascending sample
// order, bit-identical to GemmNT over the im2col columns, and
// tensor.ConvDXPad produces dX bit-identical to GemmTN + Col2im, with
// neither column matrix materialized. Bias gradients accumulate per
// (channel, sample) plane in ascending plane order.
func (c *Conv2D) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	x := c.x
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	planeSums(grad.Data, hw, nb, c.Bias.G.Data)
	gpad := a.slice(&a.convGrad, c.OutC*nb*hpwp)
	for p := 0; p < c.OutC*nb; p++ {
		tensor.PadGradPlane(grad.Data[p*hw:], h, w, c.K, gpad[p*hpwp:])
	}
	work, offs := a.convScratch(c.OutC, c.InC, h, w, c.K)
	tensor.ConvDWPad(gpad, hpwp, c.pad[1], hpwp, c.OutC, c.InC, nb, h, w, c.K,
		c.Weight.G.Data, work, offs)
	if !needDX {
		return nil
	}
	dx := a.tensorFor(&c.dx, x.Shape...)
	tensor.ConvDXPad(c.Weight.W.Data, c.OutC, c.InC, nb, gpad, hpwp, h, w, c.K,
		dx.Data, hw, work, offs)
	return dx
}

// planeSums adds the sum of each n-element plane of x to acc[q/nb] in
// ascending plane order q: the conv bias gradient. Each plane sums in one
// chain from +0 in ascending order, four consecutive planes together.
func planeSums(x []float64, n, nb int, acc []float64) {
	np := len(x) / n
	for q := 0; q < np; q += 4 {
		s := sum4(fourPlanes(x, n, q, np))
		for j := 0; j < min(4, np-q); j++ {
			acc[(q+j)/nb] += s[j]
		}
	}
}

// fourPlanes returns planes q..q+3 of the np n-element planes of x. Past
// the last plane it repeats that plane, whose extra results the callers
// discard, so every pass carries four chains.
func fourPlanes(x []float64, n, q, np int) [4][]float64 {
	var p [4][]float64
	for j := range p {
		i := min(q+j, np-1)
		p[j] = x[i*n : (i+1)*n]
	}
	return p
}

// sum4 returns the sums of four equal-length planes, each one chain from
// +0 in ascending order; the four chains share each pass.
func sum4(p [4][]float64) [4]float64 {
	x0 := p[0]
	x1, x2, x3 := p[1][:len(x0)], p[2][:len(x0)], p[3][:len(x0)]
	var s0, s1, s2, s3 float64
	for i := range x0 {
		s0 += x0[i]
		s1 += x1[i]
		s2 += x2[i]
		s3 += x3[i]
	}
	return [4]float64{s0, s1, s2, s3}
}

// ---------------------------------------------------------------------------
// BatchNorm

// BatchNorm normalizes each (channel, sample) plane over its spatial
// extent, with learnable scale/shift and running statistics for inference.
type BatchNorm struct {
	C     int
	Gamma *Param
	Beta  *Param

	Momentum float64
	RunMean  []float64
	RunVar   []float64
	Eps      float64

	arena *Arena
	out   [2]*tensor.Tensor
	xhat  []float64 // x̂ of the last training Forward
	invSD []float64 // per (channel, sample) 1/σ of the last training Forward
	dx    *tensor.Tensor
}

// NewBatchNorm builds a batch-norm layer for c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	g := tensor.New(c)
	g.Fill(1)
	bn := &BatchNorm{
		C:        c,
		Gamma:    newParam(name+".gamma", g),
		Beta:     newParam(name+".beta", tensor.New(c)),
		Momentum: 0.9,
		RunMean:  make([]float64, c),
		RunVar:   make([]float64, c),
		Eps:      1e-5,
	}
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	return bn
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Forward implements Layer on (C, B, H, W). Training normalizes every
// plane by its own mean and variance, so samples stay independent; batch
// statistics would silently change the model being trained. Each plane's
// statistics are one chain per sum, and the running statistics advance
// once per plane in ascending (channel, sample) order.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm input %v, want (%d,B,H,W)", x.Shape, b.C))
	}
	nb := x.Shape[1]
	n := x.Shape[2] * x.Shape[3]
	a := ensureArena(&b.arena)
	out := a.tensorFor(&b.out[mode(train)], x.Shape...)
	if !train {
		// A channel's nb planes are contiguous and share its statistics.
		for c := 0; c < b.C; c++ {
			g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
			mean := b.RunMean[c]
			inv := 1 / math.Sqrt(b.RunVar[c]+b.Eps)
			dst := out.Data[c*nb*n : (c+1)*nb*n]
			for i, v := range x.Data[c*nb*n : (c+1)*nb*n] {
				dst[i] = g*((v-mean)*inv) + beta
			}
		}
		return out
	}
	xhat := a.slice(&b.xhat, x.Size())
	invSD := a.slice(&b.invSD, b.C*nb)
	np := b.C * nb
	for q := 0; q < np; q += 4 {
		mean, varc := planeMoments(fourPlanes(x.Data, n, q, np))
		for j := 0; j < min(4, np-q); j++ {
			p, c := q+j, (q+j)/nb
			b.RunMean[c] = b.Momentum*b.RunMean[c] + (1-b.Momentum)*mean[j]
			b.RunVar[c] = b.Momentum*b.RunVar[c] + (1-b.Momentum)*varc[j]
			inv := 1 / math.Sqrt(varc[j]+b.Eps)
			invSD[p] = inv
			g, beta, mu := b.Gamma.W.Data[c], b.Beta.W.Data[c], mean[j]
			xh, dst := xhat[p*n:(p+1)*n], out.Data[p*n:(p+1)*n]
			for i, v := range x.Data[p*n : (p+1)*n] {
				h := (v - mu) * inv
				xh[i] = h
				dst[i] = g*h + beta
			}
		}
	}
	return out
}

// planeMoments returns the mean and variance of four equal-length
// planes: the sum of each plane in one chain from +0, divided by its
// length, then the squared deviations from that mean in one chain,
// divided by its length. The four planes' chains share each pass.
func planeMoments(p [4][]float64) (mean, varc [4]float64) {
	x0 := p[0]
	x1, x2, x3 := p[1][:len(x0)], p[2][:len(x0)], p[3][:len(x0)]
	fn := float64(len(x0))
	s := sum4(p)
	m0, m1, m2, m3 := s[0]/fn, s[1]/fn, s[2]/fn, s[3]/fn
	var v0, v1, v2, v3 float64
	for i := range x0 {
		d0, d1, d2, d3 := x0[i]-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
		v0 += d0 * d0
		v1 += d1 * d1
		v2 += d2 * d2
		v3 += d3 * d3
	}
	return [4]float64{m0, m1, m2, m3}, [4]float64{v0 / fn, v1 / fn, v2 / fn, v3 / fn}
}

// Backward implements Layer: the training-mode gradient applied plane by
// plane, with Gamma/Beta accumulating in ascending sample order per
// channel. Four planes' sums run together, one chain each, and each
// plane's constant factor γ·(1/σ)/n is computed once.
func (b *BatchNorm) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	nb := grad.Shape[1]
	n := grad.Shape[2] * grad.Shape[3]
	dx := ensureArena(&b.arena).tensorFor(&b.dx, grad.Shape...)
	fn := float64(n)
	np := b.C * nb
	for q := 0; q < np; q += 4 {
		sumDy, sumDyXhat := gradSums(fourPlanes(grad.Data, n, q, np), fourPlanes(b.xhat, n, q, np))
		for j := 0; j < min(4, np-q); j++ {
			p, c := q+j, (q+j)/nb
			sdy, sdx := sumDy[j], sumDyXhat[j]
			b.Gamma.G.Data[c] += sdx
			b.Beta.G.Data[c] += sdy
			k := b.Gamma.W.Data[c] * b.invSD[p] / fn
			xh, dp := b.xhat[p*n:(p+1)*n], dx.Data[p*n:(p+1)*n]
			for i, dy := range grad.Data[p*n : (p+1)*n] {
				dp[i] = k * (fn*dy - sdy - xh[i]*sdx)
			}
		}
	}
	return dx
}

// gradSums returns, for four equal-length planes of the output gradient
// dy and of x̂, Σdy and Σdy·x̂ per plane, each one chain from +0 in
// ascending order; the eight chains share each pass.
func gradSums(dy, xhat [4][]float64) (sumDy, sumDyXhat [4]float64) {
	g0 := dy[0]
	n := len(g0)
	g1, g2, g3 := dy[1][:n], dy[2][:n], dy[3][:n]
	h0, h1, h2, h3 := xhat[0][:n], xhat[1][:n], xhat[2][:n], xhat[3][:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	for i := range g0 {
		a0 += g0[i]
		b0 += g0[i] * h0[i]
		a1 += g1[i]
		b1 += g1[i] * h1[i]
		a2 += g2[i]
		b2 += g2[i] * h2[i]
		a3 += g3[i]
		b3 += g3[i] * h3[i]
	}
	return [4]float64{a0, a1, a2, a3}, [4]float64{b0, b1, b2, b3}
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the rectified linear activation; elementwise, so it takes any
// layout. The forward is max(v, 0): +0 for v ≤ 0 (−0 included), v
// otherwise, and NaN passes. So the training output is +0 exactly where
// the forward did not pass its input, and Backward reads its mask from
// the output's bits; neither direction branches on the data.
type ReLU struct {
	arena *Arena
	out   [2]*tensor.Tensor // out[1] is kept for Backward
	dx    *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := ensureArena(&r.arena).tensorFor(&r.out[mode(train)], x.Shape...)
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		dst[i] = max(v, 0)
	}
	return out
}

// Backward implements Layer: dx = grad where the last training output is
// not +0, else +0, by masking the gradient's bits.
func (r *ReLU) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&r.arena).tensorFor(&r.dx, grad.Shape...)
	out := r.out[1].Data[:len(grad.Data)]
	dst := dx.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		o := math.Float64bits(out[i])
		keep := uint64(int64(o|-o) >> 63) // all ones iff o ≠ +0
		dst[i] = math.Float64frombits(math.Float64bits(g) & keep)
	}
	return dx
}

// ---------------------------------------------------------------------------
// MaxPool 2x2 stride 2

// MaxPool halves spatial dimensions with 2×2 windows (odd trailing
// rows/columns are dropped, as in the paper's "pool, /2" stages).
type MaxPool struct {
	arena *Arena
	out   [2]*tensor.Tensor
	which []uint8 // argmax window position (0..3) of the last training Forward
	inSh  []int
	dx    *tensor.Tensor
}

// NewMaxPool builds the pooling layer.
func NewMaxPool() *MaxPool { return &MaxPool{} }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// Forward implements Layer: 2×2/stride-2 pooling per (channel, sample)
// plane of (C, B, H, W). A window's maximum is its first element unless a
// later one compares greater, in row-major order: the first maximum wins
// ties, and a NaN is taken only as the first element (so diverged
// training still leaves a valid argmax). The selection runs on compare
// masks, without branching on the data.
func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool input %v, want (C,B,H,W)", x.Shape))
	}
	c, nb, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: MaxPool input %v too small", x.Shape))
	}
	a := ensureArena(&p.arena)
	out := a.tensorFor(&p.out[mode(train)], c, nb, oh, ow)
	var which []uint8
	if train {
		which = a.bytes(&p.which, out.Size())
		p.inSh = append(p.inSh[:0], x.Shape...)
	}
	for plane := 0; plane < c*nb; plane++ {
		for oy := 0; oy < oh; oy++ {
			r0 := x.Data[(plane*h+2*oy)*w:][:2*ow]
			r1 := x.Data[(plane*h+2*oy+1)*w:][:2*ow]
			o := plane*oh*ow + oy*ow
			dst := out.Data[o : o+ow]
			for ox := range dst {
				v0, v1, v2, v3 := r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1]
				best, k := math.Float64bits(v0), uint64(0)
				m := -b2u(v1 > v0) // all ones where v1 takes over
				best ^= (best ^ math.Float64bits(v1)) & m
				k ^= (k ^ 1) & m
				m = -b2u(v2 > math.Float64frombits(best))
				best ^= (best ^ math.Float64bits(v2)) & m
				k ^= (k ^ 2) & m
				m = -b2u(v3 > math.Float64frombits(best))
				best ^= (best ^ math.Float64bits(v3)) & m
				k ^= (k ^ 3) & m
				dst[ox] = math.Float64frombits(best)
				if train {
					which[o+ox] = uint8(k)
				}
			}
		}
	}
	return out
}

// Backward implements Layer: each window's argmax receives +0 + its
// output's gradient, the rest of the input (odd trailing rows and columns
// included) +0.
func (p *MaxPool) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&p.arena).tensorFor(&p.dx, p.inSh...)
	c, nb, h, w := p.inSh[0], p.inSh[1], p.inSh[2], p.inSh[3]
	oh, ow := h/2, w/2
	for plane := 0; plane < c*nb; plane++ {
		for oy := 0; oy < oh; oy++ {
			d0 := dx.Data[(plane*h+2*oy)*w:][:w]
			d1 := dx.Data[(plane*h+2*oy+1)*w:][:w]
			o := plane*oh*ow + oy*ow
			which := p.which[o : o+ow]
			for ox, g := range grad.Data[o : o+ow] {
				bits := math.Float64bits(0 + g)
				k := uint64(which[ox])
				d0[2*ox] = math.Float64frombits(bits & -b2u(k == 0))
				d0[2*ox+1] = math.Float64frombits(bits & -b2u(k == 1))
				d1[2*ox] = math.Float64frombits(bits & -b2u(k == 2))
				d1[2*ox+1] = math.Float64frombits(bits & -b2u(k == 3))
			}
			if w&1 == 1 {
				d0[w-1], d1[w-1] = 0, 0
			}
		}
		if h&1 == 1 {
			clear(dx.Data[(plane*h+h-1)*w : (plane+1)*h*w])
		}
	}
	return dx
}

// b2u is 1 for true and 0 for false; the compiler evaluates it without a
// branch (SETcc), so masks built from it select without one.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// ---------------------------------------------------------------------------
// Dense (fully connected)

// Dense is a fully connected layer on sample-major rows.
type Dense struct {
	In, Out int
	Weight  *Param // (Out, In)
	Bias    *Param // (Out)

	arena *Arena
	out   [2]*tensor.Tensor
	x     *tensor.Tensor // input of the last training Forward
	dx    *tensor.Tensor
}

// NewDense builds an FC layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	std := math.Sqrt(1.0 / float64(in))
	return &Dense{
		In: in, Out: out,
		Weight: newParam(name+".w", tensor.Randn(rng, std, out, in)),
		Bias:   newParam(name+".b", tensor.New(out)),
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Forward implements Layer: x is read as x.Size()/In sample-major rows of
// In features (so a single sample may keep its spatial shape), the result
// is (B, Out). tensor.MatVecBatch streams each weight row once across the
// batch with one fixed dot-product order per output.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	nb := x.Size() / d.In
	if nb < 1 || nb*d.In != x.Size() {
		panic(fmt.Sprintf("nn: Dense input %v, want rows of %d", x.Shape, d.In))
	}
	if train {
		d.x = x
	}
	y := ensureArena(&d.arena).tensorFor(&d.out[mode(train)], nb, d.Out)
	tensor.MatVecBatch(d.Out, d.In, nb, d.Weight.W.Data, x.Data, y.Data)
	for bi := 0; bi < nb; bi++ {
		row := y.Data[bi*d.Out : (bi+1)*d.Out]
		for o := range row {
			row[o] += d.Bias.W.Data[o]
		}
	}
	return y
}

// Backward implements Layer: per sample, in ascending order, dW += dy·xᵀ
// (rank-1), db += dy and dX = Wᵀ·dy, the result shaped like the cached
// input.
func (d *Dense) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	nb := grad.Size() / d.Out
	var dx *tensor.Tensor
	if needDX {
		dx = ensureArena(&d.arena).tensorFor(&d.dx, d.x.Shape...)
	}
	for bi := 0; bi < nb; bi++ {
		grow := grad.Data[bi*d.Out : (bi+1)*d.Out]
		xrow := d.x.Data[bi*d.In : (bi+1)*d.In]
		for o, g := range grow {
			wg := d.Weight.G.Data[o*d.In : (o+1)*d.In]
			for i, v := range xrow {
				wg[i] += g * v
			}
			d.Bias.G.Data[o] += g
		}
		if !needDX {
			continue
		}
		drow := dx.Data[bi*d.In : (bi+1)*d.In]
		clear(drow)
		for o, g := range grow {
			for i, wv := range d.Weight.W.Data[o*d.In : (o+1)*d.In] {
				drow[i] += wv * g
			}
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// Sequential & residual block

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer: layers run in reverse, and only the first
// inherits needDX (every other layer's dX is its predecessor's incoming
// gradient).
func (s *Sequential) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad, needDX || i > 0)
	}
	return grad
}

// Residual is the paper's residual building block (Fig. 6(a)/(b)):
// out = ReLU(F(x) + x) where F is conv-BN-ReLU-conv-BN with matching
// channel counts.
type Residual struct {
	Body  *Sequential
	relu  *ReLU
	arena *Arena
	sum   [2]*tensor.Tensor
	dx    *tensor.Tensor
}

// NewResidual builds a residual block of two 3×3 convolutions on c
// channels.
func NewResidual(rng *rand.Rand, name string, c int) *Residual {
	return &Residual{
		Body: NewSequential(
			NewConv2D(rng, name+".conv1", c, c, 3),
			NewBatchNorm(name+".bn1", c),
			NewReLU(),
			NewConv2D(rng, name+".conv2", c, c, 3),
			NewBatchNorm(name+".bn2", c),
		),
		relu: NewReLU(),
	}
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Body.Params() }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := r.Body.Forward(x, train)
	sum := ensureArena(&r.arena).tensorFor(&r.sum[mode(train)], x.Shape...)
	addInto(sum.Data, f.Data, x.Data)
	return r.relu.Forward(sum, train)
}

// Backward implements Layer. The post-sum ReLU gradient g feeds both the
// body and the shortcut; g lives in r.relu's buffer, which no body layer
// writes, so it can be passed through and reread without copying.
func (r *Residual) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	g := r.relu.Backward(grad, true)
	dxBody := r.Body.Backward(g, true)
	dx := ensureArena(&r.arena).tensorFor(&r.dx, g.Shape...)
	addInto(dx.Data, dxBody.Data, g.Data) // body plus shortcut path
	return dx
}

// addInto sets dst[i] = a[i] + b[i].
func addInto(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}
