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
// The layers between the convolutions run internal/tensor's elementwise
// and per-plane kernels, and three passes are fused so each plane is read
// and written fewer times: a BatchNorm built with the ReLU after it
// (newBatchNormReLU, every conv → BN → ReLU of the trunk and each residual
// block's first BN) normalizes, applies γ and β and the ReLU in one pass,
// writing x̂ alongside in training, and its Backward masks the incoming
// gradient by its own output as it reads it, so the ReLU's gradient is
// never stored; a Residual adds its shortcut and applies the final ReLU
// in one pass; and Conv2D adds its bias with one vector pass per channel.
// The fused layers give the bits of the unfused chain.
//
// Every layer draws outputs, gradients, and conv scratch from an Arena,
// so warmed-up Forward/Backward cycles allocate nothing; a returned
// tensor is owned by the layer and valid until its next call in the same
// mode.
//
// With a second CPU, PolicyValueNet.Backward hands each conv layer's
// weight and bias gradients to a helper goroutine and goes on down the
// net, joining before it returns (lane.go); the split is by layer only,
// so the gradients keep the bits of the in-line path.
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
	grad  *tensor.Tensor // output gradient of a deferred Backward, for its lane job
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
		// A zero bias is skipped, not added: −0 + 0 would give +0.
		if b := c.Bias.W.Data[oc]; b != 0 {
			tensor.AddConst(out.Data[oc*nb*hw:(oc+1)*nb*hw], b)
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
//
// Inside a PolicyValueNet.Backward that defers weight gradients (see
// lane.go), the bias and weight gradients are handed to the lane as one
// job, weightGrads, and Backward pads the planes and runs ConvDXPad only.
func (c *Conv2D) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	x := c.x
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	deferred := a.deferDW
	if deferred {
		c.grad = grad
		dwLane.submit(c)
		if !needDX {
			return nil
		}
	} else {
		c.biasGrads(a, grad)
	}
	gpad := a.slice(&a.convGrad, c.OutC*nb*hpwp)
	for p := 0; p < c.OutC*nb; p++ {
		tensor.PadGradPlane(grad.Data[p*hw:], h, w, c.K, gpad[p*hpwp:])
	}
	work, offs := a.convScratch(c.OutC, c.InC, h, w, c.K)
	if !deferred {
		tensor.ConvDWPad(gpad, hpwp, c.pad[1], hpwp, c.OutC, c.InC, nb, h, w, c.K,
			c.Weight.G.Data, work, offs)
	}
	if !needDX {
		return nil
	}
	dx := a.tensorFor(&c.dx, x.Shape...)
	tensor.ConvDXPad(c.Weight.W.Data, c.OutC, c.InC, nb, gpad, hpwp, h, w, c.K,
		dx.Data, hw, work, offs)
	return dx
}

// biasGrads adds each (channel, sample) plane sum of grad to the bias
// gradient in ascending plane order, on s's scratch.
func (c *Conv2D) biasGrads(s *Arena, grad *tensor.Tensor) {
	nb := grad.Shape[1]
	sums := s.slice(&s.convSums, c.OutC*nb)
	tensor.PlaneSums(grad.Data, grad.Shape[2]*grad.Shape[3], sums)
	for p, v := range sums {
		c.Bias.G.Data[p/nb] += v
	}
}

// weightGrads is the lane job of a deferred Backward: the bias and weight
// gradients of c.grad, on the scratch of s, the executor's own arena.
// It pads one sample's gradient planes at a time and runs ConvDWPad on
// that sample, so its scratch holds OutC planes instead of OutC·B; the
// kernel already accumulates one sample at a time in ascending order, so
// dW gets the bits of the one call over the batch.
func (c *Conv2D) weightGrads(s *Arena) {
	grad := c.grad
	nb, h, w := c.x.Shape[1], c.x.Shape[2], c.x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	c.biasGrads(s, grad)
	gpad := s.slice(&s.convGrad, c.OutC*hpwp)
	work, offs := s.convScratch(c.OutC, c.InC, h, w, c.K)
	for bi := 0; bi < nb; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			tensor.PadGradPlane(grad.Data[(oc*nb+bi)*hw:], h, w, c.K, gpad[oc*hpwp:])
		}
		tensor.ConvDWPad(gpad, hpwp, c.pad[1][bi*hpwp:], nb*hpwp, c.OutC, c.InC, 1, h, w, c.K,
			c.Weight.G.Data, work, offs)
	}
}

// ---------------------------------------------------------------------------
// BatchNorm

// BatchNorm normalizes each (channel, sample) plane over its spatial
// extent, with learnable scale/shift and running statistics for inference.
// One built by newBatchNormReLU also applies the ReLU that follows it in
// the network, in the same pass: its output is ReLU(BN(x)) and its
// Backward takes the gradient of that output.
type BatchNorm struct {
	C     int
	Gamma *Param
	Beta  *Param

	Momentum float64
	RunMean  []float64
	RunVar   []float64
	Eps      float64

	relu  bool // fused ReLU after the normalization
	arena *Arena
	out   [2]*tensor.Tensor // out[1] is kept for Backward's ReLU mask
	xhat  []float64         // x̂ of the last training Forward
	invSD []float64         // per (channel, sample) 1/σ of the last training Forward
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

// newBatchNormReLU builds a batch-norm layer for c channels with the ReLU
// after it fused in. It has the parameters and running statistics of
// NewBatchNorm, so a network's Params, running-statistics vector and model
// file do not change.
func newBatchNormReLU(name string, c int) *BatchNorm {
	bn := NewBatchNorm(name, c)
	bn.relu = true
	return bn
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Forward implements Layer on (C, B, H, W). Training normalizes every
// plane by its own mean and variance, so samples stay independent; batch
// statistics would silently change the model being trained. Each plane's
// statistics are one chain per sum (tensor.PlaneMoments), and the running
// statistics advance once per plane in ascending (channel, sample) order.
// The normalization, the affine map and a fused ReLU are one pass over
// each plane (tensor.BNApply), which also writes x̂ in training.
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
			inv := 1 / math.Sqrt(b.RunVar[c]+b.Eps)
			lo, hi := c*nb*n, (c+1)*nb*n
			tensor.BNApply(out.Data[lo:hi], nil, x.Data[lo:hi], b.RunMean[c], inv,
				b.Gamma.W.Data[c], b.Beta.W.Data[c], b.relu)
		}
		return out
	}
	np := b.C * nb
	xhat := a.slice(&b.xhat, x.Size())
	invSD := a.slice(&b.invSD, np)
	for q := 0; q < np; q += bnChunk {
		m := min(bnChunk, np-q)
		var mean, varc [bnChunk]float64
		tensor.PlaneMoments(x.Data[q*n:(q+m)*n], n, mean[:m], varc[:m])
		for j := range m {
			p, c := q+j, (q+j)/nb
			b.RunMean[c] = b.Momentum*b.RunMean[c] + (1-b.Momentum)*mean[j]
			b.RunVar[c] = b.Momentum*b.RunVar[c] + (1-b.Momentum)*varc[j]
			inv := 1 / math.Sqrt(varc[j]+b.Eps)
			invSD[p] = inv
			lo, hi := p*n, (p+1)*n
			tensor.BNApply(out.Data[lo:hi], xhat[lo:hi], x.Data[lo:hi], mean[j], inv,
				b.Gamma.W.Data[c], b.Beta.W.Data[c], b.relu)
		}
	}
	return out
}

// bnChunk is how many planes BatchNorm takes at a time in training: their
// sums, then their elementwise pass, so the second pass finds the planes
// still in cache. It is a whole number of the per-plane kernels' lane
// groups of four planes.
const bnChunk = 8

// Backward implements Layer: the training-mode gradient applied plane by
// plane, with Gamma/Beta accumulating in ascending sample order per
// channel. Each plane's sums are one chain each (tensor.PlaneGradSums),
// and its constant factor γ·(1/σ)/n is computed once. With the ReLU fused,
// grad is masked by the last training output as it is read, so the ReLU's
// own gradient is never stored.
func (b *BatchNorm) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	nb := grad.Shape[1]
	n := grad.Shape[2] * grad.Shape[3]
	dx := ensureArena(&b.arena).tensorFor(&b.dx, grad.Shape...)
	fn := float64(n)
	np := b.C * nb
	for q := 0; q < np; q += bnChunk {
		m := min(bnChunk, np-q)
		lo, hi := q*n, (q+m)*n
		var mask []float64 // the fused ReLU's output over the chunk
		if b.relu {
			mask = b.out[1].Data[lo:hi]
		}
		var sumDy, sumDyXhat [bnChunk]float64
		tensor.PlaneGradSums(grad.Data[lo:hi], b.xhat[lo:hi], mask, n, sumDy[:m], sumDyXhat[:m])
		for j := range m {
			p, c := q+j, (q+j)/nb
			sdy, sdx := sumDy[j], sumDyXhat[j]
			b.Gamma.G.Data[c] += sdx
			b.Beta.G.Data[c] += sdy
			k := b.Gamma.W.Data[c] * b.invSD[p] / fn
			var pm []float64
			if mask != nil {
				pm = mask[j*n : (j+1)*n]
			}
			lo, hi := p*n, (p+1)*n
			tensor.BNBackward(dx.Data[lo:hi], grad.Data[lo:hi], b.xhat[lo:hi], pm, k, fn, sdy, sdx)
		}
	}
	return dx
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
	tensor.ReLU(out.Data, x.Data)
	return out
}

// Backward implements Layer: dx = grad where the last training output is
// not +0, else +0, by masking the gradient's bits.
func (r *ReLU) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&r.arena).tensorFor(&r.dx, grad.Shape...)
	tensor.ReLUMask(dx.Data, grad.Data, r.out[1].Data)
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
// plane of (C, B, H, W), one tensor.MaxPoolRow per output row. A window's
// maximum is its first element unless a later one compares greater, in
// row-major order: the first maximum wins ties, and a NaN is taken only as
// the first element (so diverged training still leaves a valid argmax).
// The selection runs on compare masks, without branching on the data.
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
			r0 := x.Data[(plane*h+2*oy)*w:]
			r1 := x.Data[(plane*h+2*oy+1)*w:]
			o := plane*oh*ow + oy*ow
			var wrow []uint8
			if train {
				wrow = which[o : o+ow]
			}
			tensor.MaxPoolRow(out.Data[o:o+ow], wrow, r0, r1)
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
			tensor.MaxPoolBackRow(d0, d1, grad.Data[o:o+ow], p.which[o:o+ow])
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
// channel counts. The first BN carries its ReLU fused, and the sum and the
// ReLU after it are one pass (tensor.AddReLU).
type Residual struct {
	Body  *Sequential
	arena *Arena
	out   [2]*tensor.Tensor // out[1] is kept for Backward's ReLU mask
	g, dx *tensor.Tensor
}

// NewResidual builds a residual block of two 3×3 convolutions on c
// channels.
func NewResidual(rng *rand.Rand, name string, c int) *Residual {
	return &Residual{
		Body: NewSequential(
			NewConv2D(rng, name+".conv1", c, c, 3),
			newBatchNormReLU(name+".bn1", c),
			NewConv2D(rng, name+".conv2", c, c, 3),
			NewBatchNorm(name+".bn2", c),
		),
	}
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Body.Params() }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := r.Body.Forward(x, train)
	out := ensureArena(&r.arena).tensorFor(&r.out[mode(train)], x.Shape...)
	tensor.AddReLU(out.Data, f.Data, x.Data)
	return out
}

// Backward implements Layer. The post-sum ReLU gradient g feeds both the
// body and the shortcut; g has its own buffer, which no body layer
// writes, so it can be passed through and reread without copying.
func (r *Residual) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	a := ensureArena(&r.arena)
	g := a.tensorFor(&r.g, grad.Shape...)
	tensor.ReLUMask(g.Data, grad.Data, r.out[1].Data)
	dxBody := r.Body.Backward(g, true)
	dx := a.tensorFor(&r.dx, g.Shape...)
	tensor.Add(dx.Data, dxBody.Data, g.Data) // body plus shortcut path
	return dx
}
