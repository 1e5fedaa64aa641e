package nn

import (
	"fmt"
	"math"

	"routerless/internal/tensor"
)

// Batched inference path. Spatial activations use a channel-major batched
// layout (C, B, H, W): all B samples of a channel are contiguous, so
// per-channel layers (BatchNorm, bias add) sweep one contiguous row per
// channel. Convolutions run the same fused padded-plane body as the
// per-sample Forward and the batched trainer (Conv2D.forwardPad), one
// tensor.ConvFwdPad call over the batch. Fully connected head layers repack to
// sample-major (B, features) rows and run tensor.MatVecBatch.
//
// The path is inference-only: BatchNorm reads running statistics (so
// samples are independent), and no training caches (ReLU masks, BatchNorm
// x̂, MaxPool argmax) are written — that is a real fraction of the
// per-sample Forward cost. Every per-sample result is bit-identical to
// Forward on that sample: the conv body is shared, MatVecBatch replicates
// GemmNN's n==1 dot-product order, and the remaining layers are
// elementwise with unchanged expressions. The legacy Forward therefore
// stays the determinism oracle for this path.
//
// All batch scratch comes from the network's Arena through separate
// per-layer handles (bout/bpad/bsum …), so a warmed-up ForwardBatch
// allocates nothing and interleaving with training Forward/Backward on the
// same net never aliases buffers.

// batchLayer is implemented by every layer that supports the batched
// inference layout.
type batchLayer interface {
	ForwardBatch(x *tensor.Tensor) *tensor.Tensor
}

// ForwardBatch applies the chain in the batched layout.
func (s *Sequential) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		bl, ok := l.(batchLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %T has no batched forward", l))
		}
		x = bl.ForwardBatch(x)
	}
	return x
}

// ForwardBatch implements batchLayer: x is (InC, B, H, W), the result
// (OutC, B, H, W), through forwardPad.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D batched input shape %v, want (%d,B,H,W)", x.Shape, c.InC))
	}
	nb, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	out := ensureArena(&c.arena).tensorFor(&c.bout, c.OutC, nb, h, w)
	c.forwardPad(x.Data, nb, h, w, &c.bpad, out.Data)
	return out
}

// ForwardBatch implements batchLayer in evaluation mode: each channel is an
// affine transform by the running statistics, applied over one contiguous
// (B·H·W) row. The per-element expression matches Forward's eval path
// exactly; no x̂ cache is written.
func (b *BatchNorm) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm batched input %v, want (%d,B,H,W)", x.Shape, b.C))
	}
	n := x.Shape[1] * x.Shape[2] * x.Shape[3]
	out := ensureArena(&b.arena).tensorFor(&b.bout, x.Shape...)
	for c := 0; c < b.C; c++ {
		mean := b.RunMean[c]
		inv := 1 / math.Sqrt(b.RunVar[c]+b.Eps)
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		src := x.Data[c*n : (c+1)*n]
		dst := out.Data[c*n : (c+1)*n]
		for i, v := range src {
			dst[i] = g*((v-mean)*inv) + beta
		}
	}
	return out
}

// ForwardBatch implements batchLayer; shape-generic and elementwise, with
// no backward mask written.
func (r *ReLU) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	out := ensureArena(&r.arena).tensorFor(&r.bout, x.Shape...)
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			out.Data[i] = v
		}
	}
	return out
}

// ForwardBatch implements batchLayer: 2×2/stride-2 pooling per (channel,
// sample) plane, with no argmax recorded.
func (p *MaxPool) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool batched input %v, want (C,B,H,W)", x.Shape))
	}
	c, nb, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: MaxPool input %v too small", x.Shape))
	}
	out := ensureArena(&p.arena).tensorFor(&p.bout, c, nb, oh, ow)
	for plane := 0; plane < c*nb; plane++ {
		src := x.Data[plane*h*w : (plane+1)*h*w]
		dst := out.Data[plane*oh*ow : (plane+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := src[2*oy*w+2*ox]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := src[(2*oy+dy)*w+2*ox+dx]; v > best {
							best = v
						}
					}
				}
				dst[oy*ow+ox] = best
			}
		}
	}
	return out
}

// ForwardBatch implements batchLayer: out = ReLU(F(x) + x), elementwise as
// in the per-sample path.
func (r *Residual) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	f := r.Body.ForwardBatch(x)
	sum := ensureArena(&r.arena).tensorFor(&r.bsum, x.Shape...)
	copy(sum.Data, f.Data)
	sum.AddInPlace(x)
	return r.relu.ForwardBatch(sum)
}

// ForwardBatchRows evaluates the FC layer on sample-major rows: x is
// (B, In), the result (B, Out). It routes through tensor.MatVecBatch so
// each weight row streams once across the batch with the per-sample
// dot-product order unchanged.
func (d *Dense) ForwardBatchRows(x *tensor.Tensor) *tensor.Tensor {
	nb := x.Shape[0]
	if x.Size() != nb*d.In {
		panic(fmt.Sprintf("nn: Dense batched input %v, want (%d,%d)", x.Shape, nb, d.In))
	}
	y := ensureArena(&d.arena).tensorFor(&d.bout, nb, d.Out)
	tensor.MatVecBatch(d.Out, d.In, nb, d.Weight.W.Data, x.Data, y.Data)
	for bi := 0; bi < nb; bi++ {
		row := y.Data[bi*d.Out : (bi+1)*d.Out]
		for o := range row {
			row[o] += d.Bias.W.Data[o]
		}
	}
	return y
}

// packSamples transposes a channel-major (C, B, H, W) activation into
// sample-major (B, C·H·W) rows — each row is exactly the flattening
// Dense.Forward sees per sample — with one contiguous copy per (channel,
// sample) plane.
func packSamples(a *Arena, p **tensor.Tensor, src *tensor.Tensor) *tensor.Tensor {
	c, nb := src.Shape[0], src.Shape[1]
	hw := src.Shape[2] * src.Shape[3]
	dst := a.tensorFor(p, nb, c*hw)
	for ci := 0; ci < c; ci++ {
		for bi := 0; bi < nb; bi++ {
			copy(dst.Data[bi*c*hw+ci*hw:bi*c*hw+(ci+1)*hw],
				src.Data[(ci*nb+bi)*hw:(ci*nb+bi+1)*hw])
		}
	}
	return dst
}

// ForwardBatch evaluates len(states) hop-count matrices in inference mode,
// filling outs[i] with the result for states[i]; outs must have at least
// len(states) elements. Per-sample results are bit-identical to
// Forward(states[i], false) — see the package comment in this file for why
// that holds. Output slices already present in outs are reused, so after
// WarmBatch a steady-state call allocates nothing. Unlike Forward, the
// filled Outputs do not alias network buffers and stay valid until the
// caller reuses them.
func (n *PolicyValueNet) ForwardBatch(states [][]float64, outs []Output) {
	nb := len(states)
	if nb == 0 {
		return
	}
	if len(outs) < nb {
		panic(fmt.Sprintf("nn: ForwardBatch got %d outputs for %d states", len(outs), nb))
	}
	side := n.Cfg.N * n.Cfg.N
	x := n.arena.tensorFor(&n.bin, 1, nb, side, side)
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
	tb := n.trunk.ForwardBatch(x)

	// Policy coordinates.
	pc := n.pConv.ForwardBatch(tb)
	h1 := n.pReLU.ForwardBatch(n.pFC1.ForwardBatchRows(packSamples(n.arena, &n.bpX, pc)))
	logits := n.pFC2.ForwardBatchRows(h1)
	// Direction.
	dpre := n.dFC.ForwardBatchRows(packSamples(n.arena, &n.bdX, n.dConv.ForwardBatch(tb)))
	// Value.
	val := n.vFC.ForwardBatchRows(packSamples(n.arena, &n.bvX, n.vConv.ForwardBatch(tb)))

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

// WarmBatch runs one throwaway batched forward of b blank states so the
// arena's batch scratch is sized for batches up to b; subsequent
// ForwardBatch calls of any size ≤ b are allocation-free.
func (n *PolicyValueNet) WarmBatch(b int) {
	if b < 1 {
		return
	}
	side := n.Cfg.N * n.Cfg.N
	states := make([][]float64, b)
	for i := range states {
		states[i] = make([]float64, side*side)
	}
	n.ForwardBatch(states, make([]Output, b))
}
