package nn

import (
	"fmt"
	"math"

	"routerless/internal/tensor"
)

// Batched training path — the training-mode twin of the batched inference
// path in batch.go. Spatial activations use the same channel-major batched
// layout (C, B, H, W); fully connected head layers run on sample-major
// (B, features) rows. Unlike ForwardBatch, every layer writes its training
// caches (im2col columns, BatchNorm x̂ and per-sample statistics, ReLU
// masks, MaxPool argmax) so BackwardBatch can back-propagate the whole
// batch in one pass.
//
// Two contracts keep the path exactly equivalent to running the per-sample
// Forward/Backward loop over the batch in order (sample index bi plays the
// role of the trajectory step t):
//
//  1. Forward activations are bit-identical to per-sample Forward. Batched
//     convolution runs tensor.ConvFwdPad, the fused padded-plane kernel
//     whose per-element reduction chains replicate Im2col + GemmNN exactly
//     (pinned by tensor's TestConvFusedMatchesLowered); BatchNorm in
//     batch-train mode keeps PER-SAMPLE statistics — each sample is
//     normalized over its own spatial extent, exactly as B=1 training
//     does, with the running-statistics EMA applied in ascending sample
//     order per channel — batch statistics would silently change the model
//     being trained.
//
//  2. Accumulated gradients are bit-identical, preserving the sequential
//     per-step reduction order for every parameter. Conv dW and dX run one
//     sample at a time in ascending bi through tensor.ConvDWPad and
//     tensor.ConvDXPad, fused kernels bit-identical to the sequential
//     GemmNT-over-cols and GemmTN + Col2im calls; Dense heads accumulate
//     per-sample rank-1 updates in bi order through the same k==1/n==1
//     GemmNT/GemmTN fast paths Dense.Backward uses; BatchNorm and bias
//     sums accumulate per (channel, sample) plane in bi order.
//     internal/rl's tests keep the per-step loop as accumulateSequential,
//     the parity oracle for all of this.
//
// All scratch comes from the network's Arena through dedicated t-prefixed
// handles, disjoint from both the per-sample training buffers and the
// inference-batch buffers, so the three paths can interleave on one net
// and a warmed-up train step allocates nothing.

// trainBatchLayer is implemented by every layer that supports batched
// training in the channel-major layout. BackwardBatch consumes dL/d(out),
// accumulates parameter gradients, and returns dL/d(in); when needDX is
// false the layer may skip computing dL/d(in) and return nil (used for the
// trunk's first layer, whose input gradient nobody consumes — the
// sequential path computes and discards it, so skipping is exact).
type trainBatchLayer interface {
	ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor
	BackwardBatch(grad *tensor.Tensor, needDX bool) *tensor.Tensor
}

// ForwardBatchTrain applies the chain in the batched layout, training mode.
func (s *Sequential) ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		tl, ok := l.(trainBatchLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %T has no batched train forward", l))
		}
		x = tl.ForwardBatchTrain(x)
	}
	return x
}

// BackwardBatch implements trainBatchLayer: layers run in reverse; only the
// first layer inherits needDX (every other layer's dX is its predecessor's
// incoming gradient).
func (s *Sequential) BackwardBatch(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].(trainBatchLayer).BackwardBatch(grad, needDX || i > 0)
	}
	return grad
}

// ForwardBatchTrain implements trainBatchLayer: x is (InC, B, H, W), the
// result (OutC, B, H, W). Unlike the inference batch path, no column matrix
// is lowered: the input is copied once into zero-padded planes (kept for
// BackwardBatch) and each sample runs tensor.ConvFwdPad, which is
// bit-identical to Im2col + GemmNN but touches K²× less memory — at paper
// scale the cols matrix is megabytes per sample, and eliminating it is
// where the batched path's speedup over the sequential loop comes from.
func (c *Conv2D) ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D batched train input shape %v, want (%d,B,H,W)", x.Shape, c.InC))
	}
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	hpwp := (h + c.K - 1) * (w + c.K - 1)
	a := ensureArena(&c.arena)
	c.tx = x
	out := a.tensorFor(&c.tout, c.OutC, nb, h, w)
	xp := a.slice(&c.tpad, c.InC*nb*hpwp)
	for ic := 0; ic < c.InC; ic++ {
		for bi := 0; bi < nb; bi++ {
			plane := (ic*nb + bi)
			tensor.PadPlane(x.Data[plane*hw:(plane+1)*hw], h, w, c.K, xp[plane*hpwp:(plane+1)*hpwp])
		}
	}
	pout := a.slice(&c.tpout, (h-1)*(w+c.K-1)+w)
	for bi := 0; bi < nb; bi++ {
		tensor.ConvFwdPad(c.Weight.W.Data, c.OutC, c.InC,
			xp[bi*hpwp:], nb*hpwp, h, w, c.K,
			out.Data[bi*hw:], nb*hw, pout)
	}
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		if b == 0 {
			continue
		}
		row := out.Data[oc*nb*hw : (oc+1)*nb*hw]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

// BackwardBatch implements trainBatchLayer: one sample at a time, in
// ascending sample (= trajectory) order, through the fused padded-plane
// kernels — tensor.ConvDWPad accumulates dW bit-identical to the sequential
// per-step GemmNT calls, and tensor.ConvDXPad produces dX bit-identical to
// GemmTN + Col2im, with neither the cols nor the dcols matrix ever
// materialized. Bias gradients accumulate per (channel, sample) plane in
// sample order.
func (c *Conv2D) BackwardBatch(grad *tensor.Tensor, needDX bool) *tensor.Tensor {
	x := c.tx
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
	rowBuf := a.slice(&c.trow, hw)
	gT := a.slice(&c.tgT, (c.OutC&^3)*span)
	gpad := a.slice(&c.tgp, c.OutC*hpwp)
	var dx *tensor.Tensor
	var pacc, srow []float64
	if needDX {
		dx = a.tensorFor(&c.tdx, x.Shape...)
		pacc = a.slice(&c.tpout, span)
		if c.OutC > 4 {
			srow = a.slice(&c.tsrow, span)
		}
	}
	// The interior rows of the padded gradient planes, viewed from the first
	// pixel at stride wpad, are exactly the zero-gapped span ConvDWPad walks.
	gp := gpad[lead*wpad+lead:]
	for bi := 0; bi < nb; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			tensor.PadPlaneLead(grad.Data[(oc*nb+bi)*hw:], h, w, c.K, lead, gpad[oc*hpwp:])
		}
		tensor.ConvDWPad(grad.Data[bi*hw:], nb*hw, gp, hpwp,
			c.tpad[bi*hpwp:], nb*hpwp,
			c.OutC, c.InC, h, w, c.K, c.Weight.G.Data, gT, rowBuf)
		if needDX {
			tensor.ConvDXPad(c.Weight.W.Data, c.OutC, c.InC,
				gpad, hpwp, h, w, c.K,
				dx.Data[bi*hw:], nb*hw, pacc, srow)
		}
	}
	return dx
}

// ForwardBatchTrain implements trainBatchLayer in batch-train mode: each
// (channel, sample) plane is normalized over its own spatial extent with
// freshly computed statistics — exactly the B=1 training rule — and the
// running-statistics EMA advances once per sample, in ascending sample
// order per channel, reproducing the sequential update sequence.
func (b *BatchNorm) ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm batched train input %v, want (%d,B,H,W)", x.Shape, b.C))
	}
	nb := x.Shape[1]
	n := x.Shape[2] * x.Shape[3]
	a := ensureArena(&b.arena)
	out := a.tensorFor(&b.tout, x.Shape...)
	xhat := a.slice(&b.txhat, x.Size())
	a.slice(&b.tmean, b.C*nb)
	a.slice(&b.tinvSD, b.C*nb)
	for c := 0; c < b.C; c++ {
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			ch := x.Data[p : p+n]
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
			b.tmean[c*nb+bi], b.tinvSD[c*nb+bi] = mean, inv
			for i, v := range ch {
				xh := (v - mean) * inv
				xhat[p+i] = xh
				out.Data[p+i] = g*xh + beta
			}
		}
	}
	return out
}

// BackwardBatch implements trainBatchLayer: the per-sample training-mode
// gradient applied plane by plane, with Gamma/Beta accumulating in
// ascending sample order per channel.
func (b *BatchNorm) BackwardBatch(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	nb := grad.Shape[1]
	n := grad.Shape[2] * grad.Shape[3]
	dx := ensureArena(&b.arena).tensorFor(&b.tdx, grad.Shape...)
	for c := 0; c < b.C; c++ {
		g := b.Gamma.W.Data[c]
		for bi := 0; bi < nb; bi++ {
			p := (c*nb + bi) * n
			var sumDy, sumDyXhat float64
			for i := 0; i < n; i++ {
				dy := grad.Data[p+i]
				sumDy += dy
				sumDyXhat += dy * b.txhat[p+i]
			}
			b.Gamma.G.Data[c] += sumDyXhat
			b.Beta.G.Data[c] += sumDy
			inv := b.tinvSD[c*nb+bi]
			for i := 0; i < n; i++ {
				dy := grad.Data[p+i]
				xh := b.txhat[p+i]
				dx.Data[p+i] = g * inv / float64(n) *
					(float64(n)*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// ForwardBatchTrain implements trainBatchLayer; shape-generic and
// elementwise (it also serves the sample-major head rows), recording the
// backward mask.
func (r *ReLU) ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor {
	a := ensureArena(&r.arena)
	out := a.tensorFor(&r.tout, x.Shape...)
	mask := a.bools(&r.tmask, x.Size())
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

// BackwardBatch implements trainBatchLayer.
func (r *ReLU) BackwardBatch(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&r.arena).tensorFor(&r.tdx, grad.Shape...)
	for i, v := range grad.Data {
		if r.tmask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// ForwardBatchTrain implements trainBatchLayer: 2×2/stride-2 pooling per
// (channel, sample) plane, recording argmax for backward.
func (p *MaxPool) ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool batched train input %v, want (C,B,H,W)", x.Shape))
	}
	c, nb, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: MaxPool input %v too small", x.Shape))
	}
	a := ensureArena(&p.arena)
	out := a.tensorFor(&p.tout, c, nb, oh, ow)
	argmax := a.ints(&p.targmax, out.Size())
	inSh := a.ints(&p.tinSh, 4)
	copy(inSh, x.Shape)
	for plane := 0; plane < c*nb; plane++ {
		src := x.Data[plane*h*w : (plane+1)*h*w]
		pbase := plane * oh * ow
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
				oi := pbase + oy*ow + ox
				out.Data[oi] = best
				argmax[oi] = plane*h*w + bestIdx
			}
		}
	}
	return out
}

// BackwardBatch implements trainBatchLayer.
func (p *MaxPool) BackwardBatch(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	dx := ensureArena(&p.arena).tensorFor(&p.tdx, p.tinSh...)
	dx.Fill(0)
	for oi, idx := range p.targmax {
		dx.Data[idx] += grad.Data[oi]
	}
	return dx
}

// ForwardBatchTrain implements trainBatchLayer: out = ReLU(F(x) + x) with
// every inner layer in batch-train mode.
func (r *Residual) ForwardBatchTrain(x *tensor.Tensor) *tensor.Tensor {
	f := r.Body.ForwardBatchTrain(x)
	sum := ensureArena(&r.arena).tensorFor(&r.tsum, x.Shape...)
	copy(sum.Data, f.Data)
	sum.AddInPlace(x)
	return r.relu.ForwardBatchTrain(sum)
}

// BackwardBatch implements trainBatchLayer; as in the sequential path, the
// post-sum ReLU gradient g feeds both the body and the shortcut, and lives
// in a buffer no body layer writes.
func (r *Residual) BackwardBatch(grad *tensor.Tensor, _ bool) *tensor.Tensor {
	g := r.relu.BackwardBatch(grad, true)
	dxBody := r.Body.BackwardBatch(g, true)
	dx := ensureArena(&r.arena).tensorFor(&r.tdx, g.Shape...)
	copy(dx.Data, dxBody.Data)
	dx.AddInPlace(g)
	return dx
}

// ForwardBatchTrainRows evaluates the FC layer on sample-major rows in
// training mode: x is (B, In), the result (B, Out), with the input cached
// for BackwardBatchRows. Routed through MatVecBatch, so each sample's row
// is bit-identical to Dense.Forward on that sample.
func (d *Dense) ForwardBatchTrainRows(x *tensor.Tensor) *tensor.Tensor {
	nb := x.Shape[0]
	if x.Size() != nb*d.In {
		panic(fmt.Sprintf("nn: Dense batched train input %v, want (%d,%d)", x.Shape, nb, d.In))
	}
	d.tx = x
	y := ensureArena(&d.arena).tensorFor(&d.tout, nb, d.Out)
	tensor.MatVecBatch(d.Out, d.In, nb, d.Weight.W.Data, x.Data, y.Data)
	for bi := 0; bi < nb; bi++ {
		row := y.Data[bi*d.Out : (bi+1)*d.Out]
		for o := range row {
			row[o] += d.Bias.W.Data[o]
		}
	}
	return y
}

// BackwardBatchRows back-propagates sample-major rows: per sample, in
// ascending order, dW accumulates the same rank-1 GemmNT update and dX the
// same n==1 GemmTN as Dense.Backward, so head gradients stay byte-identical
// to the sequential loop.
func (d *Dense) BackwardBatchRows(grad *tensor.Tensor) *tensor.Tensor {
	nb := grad.Shape[0]
	dx := ensureArena(&d.arena).tensorFor(&d.tdx, nb, d.In)
	for bi := 0; bi < nb; bi++ {
		grow := grad.Data[bi*d.Out : (bi+1)*d.Out]
		xrow := d.tx.Data[bi*d.In : (bi+1)*d.In]
		tensor.GemmNT(d.Out, d.In, 1, grow, xrow, d.Weight.G.Data, true)
		for o := 0; o < d.Out; o++ {
			d.Bias.G.Data[o] += grow[o]
		}
		tensor.GemmTN(d.In, 1, d.Out, d.Weight.W.Data, grow, dx.Data[bi*d.In:(bi+1)*d.In], false)
	}
	return dx
}

// unpackSamples is the inverse of packSamples: it transposes sample-major
// (B, C·H·W) rows back into a channel-major (C, B, H, W) activation, one
// contiguous copy per (channel, sample) plane.
func unpackSamples(a *Arena, p **tensor.Tensor, rows *tensor.Tensor, c, nb, h, w int) *tensor.Tensor {
	hw := h * w
	dst := a.tensorFor(p, c, nb, h, w)
	for ci := 0; ci < c; ci++ {
		for bi := 0; bi < nb; bi++ {
			copy(dst.Data[(ci*nb+bi)*hw:(ci*nb+bi+1)*hw],
				rows.Data[bi*c*hw+ci*hw:bi*c*hw+(ci+1)*hw])
		}
	}
	return dst
}

// ForwardBatchTrain evaluates len(states) hop-count matrices in training
// mode, filling outs[i] with the result for states[i] and leaving every
// layer's caches positioned for one BackwardBatch over the same batch.
// Per-sample outputs are bit-identical to Forward(states[i], true),
// including the BatchNorm running-statistics updates (per-sample EMA in
// ascending sample order). Output slices already present in outs are
// reused, so a warmed-up call allocates nothing.
func (n *PolicyValueNet) ForwardBatchTrain(states [][]float64, outs []Output) {
	nb := len(states)
	if nb == 0 {
		return
	}
	if len(outs) < nb {
		panic(fmt.Sprintf("nn: ForwardBatchTrain got %d outputs for %d states", len(outs), nb))
	}
	side := n.Cfg.N * n.Cfg.N
	x := n.arena.tensorFor(&n.tbin, 1, nb, side, side)
	norm := 5 * float64(n.Cfg.N)
	for bi, st := range states {
		if len(st) != side*side {
			panic(fmt.Sprintf("nn: input length %d, want %d", len(st), side*side))
		}
		dst := x.Data[bi*side*side : (bi+1)*side*side]
		for i, v := range st {
			dst[i] = v / norm
		}
	}
	tb := n.trunk.ForwardBatchTrain(x)

	// Policy coordinates.
	pc := n.pConv.ForwardBatchTrain(tb)
	n.tbpOut = pc
	h1 := n.pReLU.ForwardBatchTrain(n.pFC1.ForwardBatchTrainRows(packSamples(n.arena, &n.tpX, pc)))
	logits := n.pFC2.ForwardBatchTrainRows(h1)
	// Direction.
	dc := n.dConv.ForwardBatchTrain(tb)
	n.tbdOut = dc
	dpre := n.dFC.ForwardBatchTrainRows(packSamples(n.arena, &n.tdX, dc))
	// Value.
	vc := n.vConv.ForwardBatchTrain(tb)
	n.tbvOut = vc
	val := n.vFC.ForwardBatchTrainRows(packSamples(n.arena, &n.tvX, vc))

	nc := n.Cfg.N
	for bi := 0; bi < nb; bi++ {
		out := &outs[bi]
		lrow := logits.Data[bi*4*nc : (bi+1)*4*nc]
		for g := 0; g < 4; g++ {
			if cap(out.CoordLogits[g]) < nc {
				out.CoordLogits[g] = make([]float64, nc)
				out.CoordProbs[g] = make([]float64, nc)
			}
			out.CoordLogits[g] = out.CoordLogits[g][:nc]
			out.CoordProbs[g] = out.CoordProbs[g][:nc]
			copy(out.CoordLogits[g], lrow[g*nc:(g+1)*nc])
			tensor.SoftmaxInto(out.CoordProbs[g], out.CoordLogits[g])
		}
		out.DirPre = dpre.Data[bi]
		out.Dir = math.Tanh(out.DirPre)
		out.Value = val.Data[bi]
	}
}

// BackwardBatch back-propagates head gradients for the whole batch from
// the most recent ForwardBatchTrain. dLogits holds sample-major rows of
// dL/d(coordinate logits) — nb rows of 4N — and dDirPre/dValue one scalar
// per sample. Parameter-gradient accumulation is byte-identical to calling
// Backward once per sample in ascending order (see the file comment).
func (n *PolicyValueNet) BackwardBatch(dLogits []float64, dDirPre, dValue []float64) {
	nb := len(dDirPre)
	if len(dValue) != nb || len(dLogits) != nb*4*n.Cfg.N {
		panic(fmt.Sprintf("nn: BackwardBatch got %d logit rows, %d dirs, %d values",
			len(dLogits)/(4*n.Cfg.N), nb, len(dValue)))
	}
	flat := n.arena.tensorFor(&n.tflat, nb, 4*n.Cfg.N)
	copy(flat.Data, dLogits)

	// Policy head: FC rows back to the conv head's channel-major layout.
	gp := n.pFC2.BackwardBatchRows(flat)
	gp = n.pReLU.BackwardBatch(gp, true)
	gp = n.pFC1.BackwardBatchRows(gp)
	pc := n.tbpOut
	gTrunk := n.pConv.BackwardBatch(
		unpackSamples(n.arena, &n.tpUn, gp, pc.Shape[0], pc.Shape[1], pc.Shape[2], pc.Shape[3]), true)

	// Direction head.
	dDirT := n.arena.tensorFor(&n.tdDirT, nb, 1)
	copy(dDirT.Data, dDirPre)
	gd := n.dFC.BackwardBatchRows(dDirT)
	dc := n.tbdOut
	gTrunk.AddInPlace(n.dConv.BackwardBatch(
		unpackSamples(n.arena, &n.tdUn, gd, dc.Shape[0], dc.Shape[1], dc.Shape[2], dc.Shape[3]), true))

	// Value head.
	dValT := n.arena.tensorFor(&n.tdValT, nb, 1)
	copy(dValT.Data, dValue)
	gv := n.vFC.BackwardBatchRows(dValT)
	vc := n.tbvOut
	gTrunk.AddInPlace(n.vConv.BackwardBatch(
		unpackSamples(n.arena, &n.tvUn, gv, vc.Shape[0], vc.Shape[1], vc.Shape[2], vc.Shape[3]), true))

	// The trunk's first layer (the stem conv) has no consumer for its input
	// gradient; the sequential path computes and discards it, so needDX=false
	// skips that work exactly.
	n.trunk.BackwardBatch(gTrunk, false)
}
