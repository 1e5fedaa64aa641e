package nn

import (
	"fmt"
	"math"
	"math/rand"

	"routerless/internal/tensor"
)

// Config sizes the two-headed policy/value network of Fig. 6(c).
type Config struct {
	// N is the NoC side length; the input is an N²×N² hop-count matrix.
	N int
	// BaseChannels is the width of the first stage (paper: 16); later
	// stages use 2×, 4× and 8× that width. Tests shrink this.
	BaseChannels int
	// Pools is how many 2× max-pool stages to apply (paper: 3). It is
	// clamped so the spatial extent never vanishes.
	Pools int
}

// DefaultConfig returns the paper's architecture for an N×N NoC.
func DefaultConfig(n int) Config { return Config{N: n, BaseChannels: 16, Pools: 3} }

// Output is one forward pass's result.
type Output struct {
	// CoordLogits/CoordProbs hold the four softmax groups for
	// (x1, y1, x2, y2), each of length N.
	CoordLogits [4][]float64
	CoordProbs  [4][]float64
	// DirPre is the pre-tanh direction logit; Dir is tanh(DirPre) in
	// (-1, 1): > 0 means clockwise (§4.4).
	DirPre, Dir float64
	// Value is the predicted cumulative return.
	Value float64
}

// PolicyValueNet is the deep residual two-headed network (Fig. 6(c)):
// a convolutional trunk shared by a policy head (four coordinate softmax
// groups plus a tanh loop-direction output) and a value head.
type PolicyValueNet struct {
	Cfg Config

	trunk *Sequential
	// policy coordinate head
	pConv *Sequential
	pFC1  *Dense
	pReLU *ReLU
	pFC2  *Dense // -> 4N logits
	// direction head
	dConv *Sequential
	dFC   *Dense // -> 1 (pre-tanh)
	// value head
	vConv *Sequential
	vFC   *Dense // -> 1

	params []*Param
	// bns lists every BatchNorm in construction order, backing the running-
	// statistics vector (NumStats/CopyStatsInto/SetStats) that inference
	// evaluators sync alongside the weights, and the model file's run_stats.
	bns []*BatchNorm

	// Scratch owned by this network instance (one arena per network; one
	// network per learner goroutine, whose Backward may lend conv layers to
	// the lane's helpers until it returns — see Arena). in and the head-input rows
	// are per mode, like the layers' own buffers.
	arena      *Arena
	in         [2]*tensor.Tensor // (1, B, N², N²)
	pX, dX, vX [2]*tensor.Tensor // sample-major head-conv rows
	// Head conv outputs of the last training Forward (references, not
	// handles): Backward reads their shapes to unpack the FC row gradients
	// back into the channel-major layout.
	pOut, dOut, vOut *tensor.Tensor
	// Backward's head-gradient rows and unpacked head-conv gradients.
	flat, dDirT, dValT *tensor.Tensor
	pUn, dUn, vUn      *tensor.Tensor
}

// NewPolicyValueNet constructs the network with the given seed.
func NewPolicyValueNet(cfg Config, seed int64) *PolicyValueNet {
	if cfg.N < 2 {
		panic("nn: NoC size too small")
	}
	if cfg.BaseChannels < 1 {
		cfg.BaseChannels = 16
	}
	rng := rand.New(rand.NewSource(seed))
	side := cfg.N * cfg.N
	// Clamp pools so the final spatial side stays >= 2.
	pools := cfg.Pools
	for pools > 0 && side>>(uint(pools)) < 2 {
		pools--
	}
	cfg.Pools = pools

	c1 := cfg.BaseChannels
	c2, c3, c4 := 2*c1, 4*c1, 8*c1

	var trunk []Layer
	// "NxN conv, 16" — the stem kernel matches the NoC dimension.
	trunk = append(trunk,
		NewConv2D(rng, "stem", 1, c1, cfg.N|1), // odd kernel for same padding
		newBatchNormReLU("stem.bn", c1),
		NewResidual(rng, "res1", c1),
	)
	stage := 0
	addPool := func() bool {
		if stage < pools {
			trunk = append(trunk, NewMaxPool())
			stage++
			return true
		}
		return false
	}
	addPool()
	trunk = append(trunk,
		NewConv2D(rng, "conv2", c1, c2, 3),
		newBatchNormReLU("conv2.bn", c2),
	)
	addPool()
	trunk = append(trunk, NewResidual(rng, "res2", c2),
		NewConv2D(rng, "conv3", c2, c3, 3),
		newBatchNormReLU("conv3.bn", c3),
	)
	addPool()
	trunk = append(trunk, NewResidual(rng, "res3", c3),
		NewConv2D(rng, "conv4", c3, c4, 3),
		newBatchNormReLU("conv4.bn", c4),
		NewResidual(rng, "res4", c4),
	)

	finalSide := side >> uint(pools)
	hw := finalSide * finalSide

	net := &PolicyValueNet{
		Cfg:   cfg,
		trunk: NewSequential(trunk...),
		pConv: NewSequential(NewConv2D(rng, "p.conv", c4, 2, 3), NewReLU()),
		pFC1:  NewDense(rng, "p.fc1", 2*hw, 32),
		pReLU: NewReLU(),
		pFC2:  NewDense(rng, "p.fc2", 32, 4*cfg.N),
		dConv: NewSequential(NewConv2D(rng, "d.conv", c4, 2, 3), NewReLU()),
		dFC:   NewDense(rng, "d.fc", 2*hw, 1),
		vConv: NewSequential(NewConv2D(rng, "v.conv", c4, 1, 3), NewReLU()),
		vFC:   NewDense(rng, "v.fc", hw, 1),
	}
	net.params = append(net.params, net.trunk.Params()...)
	net.params = append(net.params, net.pConv.Params()...)
	net.params = append(net.params, net.pFC1.Params()...)
	net.params = append(net.params, net.pFC2.Params()...)
	net.params = append(net.params, net.dConv.Params()...)
	net.params = append(net.params, net.dFC.Params()...)
	net.params = append(net.params, net.vConv.Params()...)
	net.params = append(net.params, net.vFC.Params()...)

	// Thread one scratch arena through every layer, so steady-state
	// Forward/Backward cycles allocate nothing.
	net.arena = NewArena()
	for _, l := range []Layer{net.trunk, net.pConv, net.pFC1, net.pReLU,
		net.pFC2, net.dConv, net.dFC, net.vConv, net.vFC} {
		attachArena(net.arena, l)
		collectBatchNorms(l, &net.bns)
	}
	return net
}

// NumParams returns the total scalar parameter count.
func (n *PolicyValueNet) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += p.W.Size()
	}
	return total
}

// Forward evaluates len(states) hop-count matrices (each flattened
// N²×N², as produced by topo.HopMatrixInto), filling outs[i] with the result
// for states[i]; outs must have at least len(states) elements. Inputs are
// normalized by 5N so values lie in [0, 1]. With train set, BatchNorm uses
// per-sample statistics and advances its running statistics in ascending
// sample order, and every layer keeps its caches for one Backward over
// the same batch.
//
// Per-sample outputs do not depend on the batch size. Output slices
// already present in outs are reused, so a warmed-up call allocates
// nothing; the filled Outputs do not alias network buffers.
func (n *PolicyValueNet) Forward(states [][]float64, outs []Output, train bool) {
	nb := len(states)
	if nb == 0 {
		return
	}
	if len(outs) < nb {
		panic(fmt.Sprintf("nn: Forward got %d outputs for %d states", len(outs), nb))
	}
	m := mode(train)
	side := n.Cfg.N * n.Cfg.N
	x := n.arena.tensorFor(&n.in[m], 1, nb, side, side)
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
	tb := n.trunk.Forward(x, train)

	// Policy coordinates.
	pc := n.pConv.Forward(tb, train)
	h1 := n.pReLU.Forward(n.pFC1.Forward(packSamples(n.arena, &n.pX[m], pc), train), train)
	logits := n.pFC2.Forward(h1, train)
	// Direction.
	dc := n.dConv.Forward(tb, train)
	dpre := n.dFC.Forward(packSamples(n.arena, &n.dX[m], dc), train)
	// Value.
	vc := n.vConv.Forward(tb, train)
	val := n.vFC.Forward(packSamples(n.arena, &n.vX[m], vc), train)
	if train {
		n.pOut, n.dOut, n.vOut = pc, dc, vc
	}

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

// WarmBatch runs one throwaway inference Forward of b blank states so the
// arena's inference scratch is sized for batches up to b; subsequent
// inference calls of any size ≤ b are allocation-free.
func (n *PolicyValueNet) WarmBatch(b int) {
	if b < 1 {
		return
	}
	side := n.Cfg.N * n.Cfg.N
	states := make([][]float64, b)
	for i := range states {
		states[i] = make([]float64, side*side)
	}
	n.Forward(states, make([]Output, b), false)
}

// Backward back-propagates head gradients for the batch of the most recent
// training Forward. dLogits holds sample-major rows of dL/d(coordinate
// logits) — one row of 4N per sample — and dDirPre (dL/d(pre-tanh
// direction)) and dValue one scalar per sample. Parameter gradients
// accumulate one sample at a time in ascending order, so a batch of B
// accumulates the same bits as B in-order one-sample calls.
//
// At GOMAXPROCS > 1 each conv layer's weight and bias gradients run as a
// job on the process-wide lane (lane.go) while the pass goes on down the
// net; Backward joins its jobs before it returns, so every gradient is in
// place, with the bits of the in-line path, when it does.
func (n *PolicyValueNet) Backward(dLogits, dDirPre, dValue []float64) {
	nb := len(dDirPre)
	if len(dValue) != nb || len(dLogits) != nb*4*n.Cfg.N {
		panic(fmt.Sprintf("nn: Backward got %d logit rows, %d dirs, %d values",
			len(dLogits)/(4*n.Cfg.N), nb, len(dValue)))
	}
	n.arena.deferDW = dwLane.open()
	flat := n.arena.tensorFor(&n.flat, nb, 4*n.Cfg.N)
	copy(flat.Data, dLogits)

	// Policy head: FC rows back to the conv head's channel-major layout.
	// gTrunk is the p-head conv's dx buffer; the d/v head backward passes
	// write their own buffers, so accumulating into it is alias-free.
	gp := n.pFC2.Backward(flat, true)
	gp = n.pReLU.Backward(gp, true)
	gp = n.pFC1.Backward(gp, true)
	gTrunk := n.pConv.Backward(unpackSamples(n.arena, &n.pUn, gp, n.pOut), true)

	// Direction head.
	dDirT := n.arena.tensorFor(&n.dDirT, nb, 1)
	copy(dDirT.Data, dDirPre)
	gd := n.dFC.Backward(dDirT, true)
	gTrunk.AddInPlace(n.dConv.Backward(unpackSamples(n.arena, &n.dUn, gd, n.dOut), true))

	// Value head.
	dValT := n.arena.tensorFor(&n.dValT, nb, 1)
	copy(dValT.Data, dValue)
	gv := n.vFC.Backward(dValT, true)
	gTrunk.AddInPlace(n.vConv.Backward(unpackSamples(n.arena, &n.vUn, gv, n.vOut), true))

	// The stem conv's input gradient has no consumer.
	n.trunk.Backward(gTrunk, false)
	if n.arena.deferDW {
		dwLane.join(n.arena)
		n.arena.deferDW = false
	}
}

// packSamples transposes a channel-major (C, B, H, W) activation into
// sample-major (B, C·H·W) rows — each row the flattening of one sample's
// (C, H, W) map — with one contiguous copy per (channel, sample) plane.
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

// unpackSamples is the inverse of packSamples: it transposes sample-major
// rows back into a channel-major activation shaped like like.
func unpackSamples(a *Arena, p **tensor.Tensor, rows, like *tensor.Tensor) *tensor.Tensor {
	c, nb := like.Shape[0], like.Shape[1]
	hw := like.Shape[2] * like.Shape[3]
	dst := a.tensorFor(p, like.Shape...)
	for ci := 0; ci < c; ci++ {
		for bi := 0; bi < nb; bi++ {
			copy(dst.Data[(ci*nb+bi)*hw:(ci*nb+bi+1)*hw],
				rows.Data[bi*c*hw+ci*hw:bi*c*hw+(ci+1)*hw])
		}
	}
	return dst
}

// ZeroGrads clears every parameter gradient.
func (n *PolicyValueNet) ZeroGrads() {
	for _, p := range n.params {
		p.G.Fill(0)
	}
}

// GetWeights flattens all parameters into one slice (for the parameter
// server of §4.6).
func (n *PolicyValueNet) GetWeights() []float64 {
	out := make([]float64, n.NumParams())
	off := 0
	for _, p := range n.params {
		off += copy(out[off:], p.W.Data)
	}
	return out
}

// SetWeights loads a flat slice previously produced by GetWeights.
func (n *PolicyValueNet) SetWeights(w []float64) {
	off := 0
	for _, p := range n.params {
		copy(p.W.Data, w[off:off+p.W.Size()])
		off += p.W.Size()
	}
	if off != len(w) {
		panic(fmt.Sprintf("nn: SetWeights length %d, want %d", len(w), off))
	}
}

// collectBatchNorms appends every BatchNorm under l in a deterministic
// construction-order walk (mirroring attachArena's traversal).
func collectBatchNorms(l Layer, dst *[]*BatchNorm) {
	switch v := l.(type) {
	case *BatchNorm:
		*dst = append(*dst, v)
	case *Sequential:
		for _, inner := range v.Layers {
			collectBatchNorms(inner, dst)
		}
	case *Residual:
		collectBatchNorms(v.Body, dst)
	}
}

// NumStats returns the number of BatchNorm running-statistic scalars
// (running mean and variance per channel). These are NOT covered by
// GetWeights/SetWeights — they evolve on each worker's private net during
// training forwards — so inference evaluators that must reproduce a
// worker's eval-mode outputs sync them separately via CopyStatsInto/
// SetStats.
func (n *PolicyValueNet) NumStats() int {
	total := 0
	for _, bn := range n.bns {
		total += 2 * bn.C
	}
	return total
}

// CopyStatsInto flattens the BatchNorm running statistics (mean then
// variance per layer, in construction order) into dst, which must have
// length NumStats.
func (n *PolicyValueNet) CopyStatsInto(dst []float64) {
	off := 0
	for _, bn := range n.bns {
		off += copy(dst[off:], bn.RunMean)
		off += copy(dst[off:], bn.RunVar)
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: CopyStatsInto length %d, want %d", len(dst), off))
	}
}

// SetStats loads a flat vector previously produced by CopyStatsInto.
func (n *PolicyValueNet) SetStats(src []float64) {
	off := 0
	for _, bn := range n.bns {
		off += copy(bn.RunMean, src[off:off+bn.C])
		off += copy(bn.RunVar, src[off:off+bn.C])
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: SetStats length %d, want %d", len(src), off))
	}
}

// CopyGradsInto writes the flattened gradients into dst, which must have
// length NumParams.
func (n *PolicyValueNet) CopyGradsInto(dst []float64) {
	off := 0
	for _, p := range n.params {
		off += copy(dst[off:], p.G.Data)
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: CopyGradsInto length %d, want %d", len(dst), off))
	}
}
