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
// reads: the conv's zero-padded input planes, BatchNorm x̂, the ReLU mask,
// the MaxPool argmax. Inference reads the running statistics and writes
// no cache. Each mode has its own scratch set, so an inference Forward
// between a training Forward and its Backward disturbs nothing.
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
	gp    []float64      // zero-padded gradient planes of one sample
	gT    []float64      // row-interleaved gradient spans (ConvDWPad)
	row   []float64      // gathered cols row (ConvDWPad leftover columns)
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
	if train {
		c.x = x
	}
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
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

// Backward implements Layer through the fused padded-plane kernels:
// tensor.ConvDWPad, one sample at a time in ascending sample order,
// accumulates dW bit-identical to GemmNT over the im2col columns, and one
// tensor.ConvDXPad call over all samples produces dX bit-identical to
// GemmTN + Col2im, with neither column matrix materialized. Bias
// gradients accumulate per (channel, sample) plane in sample order.
func (c *Conv2D) Backward(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	x := c.x
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	for oc := 0; oc < c.OutC; oc++ {
		for bi := 0; bi < nb; bi++ {
			s := 0.0
			for _, g := range grad.Data[(oc*nb+bi)*hw : (oc*nb+bi+1)*hw] {
				s += g
			}
			c.Bias.G.Data[oc] += s
		}
	}
	wpad := w + c.K - 1
	span := (h-1)*wpad + w
	lead := c.K - 1 - (c.K-1)/2 // gradient planes lead with the larger border
	rowBuf := a.slice(&c.row, hw)
	gT := a.slice(&c.gT, (c.OutC&^3)*span)
	gpad := a.slice(&c.gp, c.OutC*hpwp) // also ConvDXPad's padding scratch
	// The interior rows of the padded gradient planes, viewed from the first
	// pixel at stride wpad, are exactly the zero-gapped span ConvDWPad walks.
	gp := gpad[lead*wpad+lead:]
	for bi := 0; bi < nb; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			tensor.PadPlaneLead(grad.Data[(oc*nb+bi)*hw:], h, w, c.K, lead, gpad[oc*hpwp:])
		}
		tensor.ConvDWPad(grad.Data[bi*hw:], nb*hw, gp, hpwp,
			c.pad[1][bi*hpwp:], nb*hpwp,
			c.OutC, c.InC, h, w, c.K, c.Weight.G.Data, gT, rowBuf)
	}
	if !needDX {
		return nil
	}
	dx := a.tensorFor(&c.dx, x.Shape...)
	work, offs := a.convScratch(c.OutC, c.InC, h, w, c.K)
	tensor.ConvDXPad(c.Weight.W.Data, c.OutC, c.InC, nb, grad.Data, hw, h, w, c.K,
		dx.Data, hw, gpad, work, offs)
	return dx
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
// statistics would silently change the model being trained.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm input %v, want (%d,B,H,W)", x.Shape, b.C))
	}
	nb := x.Shape[1]
	n := x.Shape[2] * x.Shape[3]
	a := ensureArena(&b.arena)
	out := a.tensorFor(&b.out[mode(train)], x.Shape...)
	if train {
		a.slice(&b.xhat, x.Size())
		a.slice(&b.invSD, b.C*nb)
	}
	for c := 0; c < b.C; c++ {
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			ch := x.Data[p : p+n]
			dst := out.Data[p : p+n]
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

// Backward implements Layer: the training-mode gradient applied plane by
// plane, with Gamma/Beta accumulating in ascending sample order per
// channel.
func (b *BatchNorm) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	nb := grad.Shape[1]
	n := grad.Shape[2] * grad.Shape[3]
	dx := ensureArena(&b.arena).tensorFor(&b.dx, grad.Shape...)
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
				dx.Data[p+i] = g * inv / float64(n) *
					(float64(n)*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the rectified linear activation; elementwise, so it takes any
// layout.
type ReLU struct {
	arena *Arena
	out   [2]*tensor.Tensor
	mask  []bool // of the last training Forward
	dx    *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a := ensureArena(&r.arena)
	out := a.tensorFor(&r.out[mode(train)], x.Shape...)
	if !train {
		for i, v := range x.Data {
			if v <= 0 {
				out.Data[i] = 0
			} else {
				out.Data[i] = v
			}
		}
		return out
	}
	// One pass writes the output and the mask; a NaN input passes both.
	mask := a.bools(&r.mask, x.Size())
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] = 0
			mask[i] = false
		} else {
			out.Data[i] = v
			mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&r.arena).tensorFor(&r.dx, grad.Shape...)
	for i, v := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// MaxPool 2x2 stride 2

// MaxPool halves spatial dimensions with 2×2 windows (odd trailing
// rows/columns are dropped, as in the paper's "pool, /2" stages).
type MaxPool struct {
	arena  *Arena
	out    [2]*tensor.Tensor
	argmax []int // of the last training Forward
	inSh   []int
	dx     *tensor.Tensor
}

// NewMaxPool builds the pooling layer.
func NewMaxPool() *MaxPool { return &MaxPool{} }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// Forward implements Layer: 2×2/stride-2 pooling per (channel, sample)
// plane of (C, B, H, W).
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
	var argmax []int
	if train {
		argmax = a.ints(&p.argmax, out.Size())
		p.inSh = append(p.inSh[:0], x.Shape...)
	}
	for plane := 0; plane < c*nb; plane++ {
		src := x.Data[plane*h*w : (plane+1)*h*w]
		pbase := plane * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Start from the first window element so NaN inputs
				// (diverged training) still leave a valid argmax.
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
				oi := pbase + oy*ow + ox
				out.Data[oi] = best
				if train {
					argmax[oi] = plane*h*w + bestIdx
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&p.arena).tensorFor(&p.dx, p.inSh...)
	dx.Fill(0)
	for oi, idx := range p.argmax {
		dx.Data[idx] += grad.Data[oi]
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
	copy(sum.Data, f.Data)
	sum.AddInPlace(x)
	return r.relu.Forward(sum, train)
}

// Backward implements Layer. The post-sum ReLU gradient g feeds both the
// body and the shortcut; g lives in r.relu's buffer, which no body layer
// writes, so it can be passed through and reread without copying.
func (r *Residual) Backward(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	g := r.relu.Backward(grad, true)
	dxBody := r.Body.Backward(g, true)
	dx := ensureArena(&r.arena).tensorFor(&r.dx, g.Shape...)
	copy(dx.Data, dxBody.Data)
	dx.AddInPlace(g) // shortcut path
	return dx
}
