// Package nn is a from-scratch neural-network library implementing exactly
// the components the paper's DNN needs (Fig. 6): 2-D convolutions, batch
// normalization, max pooling, ReLU, fully connected layers, residual
// blocks, softmax/tanh heads, and plain SGD. Feature maps are tensors with
// shape (channels, height, width); training operates on single examples,
// matching the paper's per-step actor-critic updates.
//
// The compute core is kernelized: convolutions run as fused padded-plane
// kernels (tensor.ConvFwdPad and friends) or, for inference batches and
// the per-sample backward, as im2col + cache-blocked GEMM (tensor.Im2col /
// tensor.GemmNN and friends); fully connected layers route through the
// same GEMM kernels. Every layer draws its outputs, gradients, and conv
// scratch from an Arena, so steady-state Forward/Backward cycles allocate
// nothing; the tensors a layer returns are owned by the layer and valid
// until its next Forward/Backward call.
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

// Layer is a differentiable module. Backward consumes dL/d(output),
// accumulates parameter gradients, and returns dL/d(input). Layers cache
// their most recent Forward inputs and reuse their output/gradient buffers
// across calls; they are not reentrant and not goroutine-safe.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a 2-D convolution with stride 1 and zero "same" padding.
// Forward runs the fused padded-plane kernel (tensor.ConvFwdPad); Backward
// lowers to im2col + GEMM. NaiveForward/NaiveBackward retain the direct
// 6-loop formulation as the parity reference.
type Conv2D struct {
	InC, OutC, K int
	Weight       *Param // shape (OutC, InC, K, K)
	Bias         *Param // shape (OutC)

	arena *Arena
	x     *tensor.Tensor // cached input
	pad   []float64      // zero-padded input planes (ConvFwdPad)
	pout  []float64      // gapped output accumulation row (ConvFwdPad)
	cols  []float64      // im2col(x), built by Backward
	dcols []float64
	out   *tensor.Tensor
	dx    *tensor.Tensor
	// Batched-inference scratch (see batch.go); separate from the training
	// buffers so ForwardBatch never clobbers state a pending Backward needs.
	bcols []float64
	btmp  []float64
	bout  *tensor.Tensor
	// Batched-training scratch (train_batch.go); separate from both the
	// per-sample training buffers and the inference-batch buffers so an
	// interleaved ForwardBatch can never clobber a pending BackwardBatch.
	// The batched train path runs the fused padded-plane kernels
	// (tensor.ConvFwdPad/ConvDWPad/ConvDXPad) instead of im2col + GEMM, so
	// its scratch is the padded input copy rather than a column matrix.
	tx    *tensor.Tensor // cached batched input
	tpad  []float64      // zero-padded input planes, kept for BackwardBatch
	tpout []float64      // gapped accumulation row (ConvFwdPad, ConvDXPad)
	tgp   []float64      // zero-padded gradient planes, rebuilt per sample
	tgT   []float64      // row-interleaved gradient spans (ConvDWPad)
	trow  []float64      // gathered cols row (ConvDWPad leftover columns)
	tsrow []float64      // gapped grouped-outC scratch (ConvDXPad, outC > 4)
	tout  *tensor.Tensor
	tdx   *tensor.Tensor
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

// Forward implements Layer: out = W∗x + b through tensor.PadPlane +
// tensor.ConvFwdPad, bit-identical to the lowered W·im2col(x) GEMM but
// without materializing the (InC·K·K, H·W) column matrix. Like the batched
// path it needs H·W > 1; the networks never pool below 2×2.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want (%d,H,W)", x.Shape, c.InC))
	}
	c.x = x
	h, w := x.Shape[1], x.Shape[2]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	xp := a.slice(&c.pad, c.InC*hpwp)
	for ic := 0; ic < c.InC; ic++ {
		tensor.PadPlane(x.Data[ic*hw:(ic+1)*hw], h, w, c.K, xp[ic*hpwp:(ic+1)*hpwp])
	}
	pout := a.slice(&c.pout, (h-1)*(w+c.K-1)+w)
	out := a.tensorFor(&c.out, c.OutC, h, w)
	tensor.ConvFwdPad(c.Weight.W.Data, c.OutC, c.InC, xp, hpwp, h, w, c.K, out.Data, hw, pout)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		if b == 0 {
			continue
		}
		row := out.Data[oc*hw : (oc+1)*hw]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

// Backward implements Layer: dW += dY·im2col(x)ᵀ, db += row-sums of dY,
// and dX = col2im(Wᵀ·dY), lowering the cached input to its column matrix.
// Training runs BackwardBatch; this per-sample path is the sequential
// oracle the batched trainer is tested against.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.x
	h, w := x.Shape[1], x.Shape[2]
	hw := h * w
	ickk := c.InC * c.K * c.K
	a := ensureArena(&c.arena)
	cols := a.slice(&c.cols, ickk*hw)
	tensor.Im2col(x.Data, c.InC, h, w, c.K, (c.K-1)/2, cols)
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, g := range grad.Data[oc*hw : (oc+1)*hw] {
			s += g
		}
		c.Bias.G.Data[oc] += s
	}
	tensor.GemmNT(c.OutC, ickk, hw, grad.Data, cols, c.Weight.G.Data, true)
	dcols := a.slice(&c.dcols, ickk*hw)
	tensor.GemmTN(ickk, hw, c.OutC, c.Weight.W.Data, grad.Data, dcols, false)
	dx := a.tensorFor(&c.dx, x.Shape...)
	tensor.Col2im(dcols, c.InC, h, w, c.K, (c.K-1)/2, dx.Data)
	return dx
}

// ---------------------------------------------------------------------------
// BatchNorm (per-channel over spatial dims; batch of one)

// BatchNorm normalizes each channel over its spatial extent, with learnable
// scale/shift and running statistics for evaluation mode.
type BatchNorm struct {
	C     int
	Gamma *Param
	Beta  *Param

	Momentum float64
	RunMean  []float64
	RunVar   []float64
	Eps      float64

	arena *Arena
	x     *tensor.Tensor
	xhat  []float64
	mean  []float64
	invSD []float64
	out   *tensor.Tensor
	dx    *tensor.Tensor
	bout  *tensor.Tensor // batched-inference scratch (batch.go)
	// Batched-training scratch (train_batch.go): per-(channel, sample)
	// statistics and normalized activations.
	txhat  []float64
	tmean  []float64
	tinvSD []float64
	tout   *tensor.Tensor
	tdx    *tensor.Tensor
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

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm input %v, want (%d,H,W)", x.Shape, b.C))
	}
	h, w := x.Shape[1], x.Shape[2]
	n := h * w
	a := ensureArena(&b.arena)
	out := a.tensorFor(&b.out, x.Shape...)
	b.x = x
	xhat := a.slice(&b.xhat, x.Size())
	a.slice(&b.mean, b.C)
	a.slice(&b.invSD, b.C)
	for c := 0; c < b.C; c++ {
		ch := x.Data[c*n : (c+1)*n]
		var mean, varc float64
		if train {
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
		} else {
			mean, varc = b.RunMean[c], b.RunVar[c]
		}
		inv := 1 / math.Sqrt(varc+b.Eps)
		b.mean[c], b.invSD[c] = mean, inv
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for i, v := range ch {
			xh := (v - mean) * inv
			xhat[c*n+i] = xh
			out.Data[c*n+i] = g*xh + beta
		}
	}
	return out
}

// Backward implements Layer (training-mode gradient).
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	h, w := b.x.Shape[1], b.x.Shape[2]
	n := h * w
	dx := ensureArena(&b.arena).tensorFor(&b.dx, b.x.Shape...)
	for c := 0; c < b.C; c++ {
		g := b.Gamma.W.Data[c]
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			dy := grad.Data[c*n+i]
			sumDy += dy
			sumDyXhat += dy * b.xhat[c*n+i]
		}
		b.Gamma.G.Data[c] += sumDyXhat
		b.Beta.G.Data[c] += sumDy
		inv := b.invSD[c]
		for i := 0; i < n; i++ {
			dy := grad.Data[c*n+i]
			xh := b.xhat[c*n+i]
			dx.Data[c*n+i] = g * inv / float64(n) *
				(float64(n)*dy - sumDy - xh*sumDyXhat)
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the rectified linear activation.
type ReLU struct {
	arena *Arena
	mask  []bool
	out   *tensor.Tensor
	dx    *tensor.Tensor
	bout  *tensor.Tensor // batched-inference scratch (batch.go)
	// Batched-training scratch (train_batch.go).
	tmask []bool
	tout  *tensor.Tensor
	tdx   *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	a := ensureArena(&r.arena)
	out := a.tensorFor(&r.out, x.Shape...)
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
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
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
	argmax []int
	inSh   []int
	out    *tensor.Tensor
	dx     *tensor.Tensor
	bout   *tensor.Tensor // batched-inference scratch (batch.go)
	// Batched-training scratch (train_batch.go).
	targmax []int
	tinSh   []int
	tout    *tensor.Tensor
	tdx     *tensor.Tensor
}

// NewMaxPool builds the pooling layer.
func NewMaxPool() *MaxPool { return &MaxPool{} }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: MaxPool input %v too small", x.Shape))
	}
	a := ensureArena(&p.arena)
	out := a.tensorFor(&p.out, c, oh, ow)
	argmax := a.ints(&p.argmax, out.Size())
	inSh := a.ints(&p.inSh, 3)
	copy(inSh, x.Shape)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Initialize from the first window element so NaN inputs
				// (diverged training) degrade gracefully instead of
				// leaving the argmax unset.
				bestIdx := (ci*h+2*oy)*w + 2*ox
				best := x.Data[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (ci*h+2*oy+dy)*w + 2*ox + dx
						if x.Data[idx] > best {
							best = x.Data[idx]
							bestIdx = idx
						}
					}
				}
				oi := (ci*oh+oy)*ow + ox
				out.Data[oi] = best
				argmax[oi] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := ensureArena(&p.arena).tensorFor(&p.dx, p.inSh...)
	dx.Fill(0)
	for oi, idx := range p.argmax {
		dx.Data[idx] += grad.Data[oi]
	}
	return dx
}

// ---------------------------------------------------------------------------
// Dense (fully connected)

// Dense is a fully connected layer on flattened inputs, routed through the
// same GEMM kernels as the convolutions (n=1 column).
type Dense struct {
	In, Out int
	Weight  *Param // (Out, In)
	Bias    *Param // (Out)

	arena *Arena
	x     *tensor.Tensor
	out   *tensor.Tensor
	dx    *tensor.Tensor
	bout  *tensor.Tensor // batched-inference scratch (batch.go)
	// Batched-training scratch (train_batch.go): sample-major rows.
	tx   *tensor.Tensor
	tout *tensor.Tensor
	tdx  *tensor.Tensor
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

// Forward implements Layer; the input is flattened regardless of shape.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Size() != d.In {
		panic(fmt.Sprintf("nn: Dense input size %d, want %d", x.Size(), d.In))
	}
	d.x = x
	y := ensureArena(&d.arena).tensorFor(&d.out, d.Out)
	tensor.GemmNN(d.Out, 1, d.In, d.Weight.W.Data, x.Data, y.Data, false)
	for i := range y.Data {
		y.Data[i] += d.Bias.W.Data[i]
	}
	return y
}

// Backward implements Layer: dW += dY·xᵀ (outer product), db += dY,
// dX = Wᵀ·dY, shaped like the cached input.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	tensor.GemmNT(d.Out, d.In, 1, grad.Data, d.x.Data, d.Weight.G.Data, true)
	for o := 0; o < d.Out; o++ {
		d.Bias.G.Data[o] += grad.Data[o]
	}
	dx := ensureArena(&d.arena).tensorFor(&d.dx, d.x.Shape...)
	tensor.GemmTN(d.In, 1, d.Out, d.Weight.W.Data, grad.Data, dx.Data, false)
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

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
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
	x     *tensor.Tensor
	sum   *tensor.Tensor
	dx    *tensor.Tensor
	bsum  *tensor.Tensor // batched-inference scratch (batch.go)
	// Batched-training scratch (train_batch.go).
	tsum *tensor.Tensor
	tdx  *tensor.Tensor
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
	r.x = x
	f := r.Body.Forward(x, train)
	sum := ensureArena(&r.arena).tensorFor(&r.sum, x.Shape...)
	copy(sum.Data, f.Data)
	sum.AddInPlace(x)
	return r.relu.Forward(sum, train)
}

// Backward implements Layer. The post-sum ReLU gradient g feeds both the
// body and the shortcut; g lives in r.relu's buffer, which no body layer
// writes, so it can be passed through and reread without copying.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := r.relu.Backward(grad)
	dxBody := r.Body.Backward(g)
	dx := ensureArena(&r.arena).tensorFor(&r.dx, r.x.Shape...)
	copy(dx.Data, dxBody.Data)
	dx.AddInPlace(g) // shortcut path
	return dx
}
