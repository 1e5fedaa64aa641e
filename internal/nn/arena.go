package nn

import (
	"fmt"
	"sync/atomic"

	"routerless/internal/tensor"
)

// Arena owns a network's scratch memory: padded conv planes, layer
// outputs, and gradient tensors. Buffers are handed out through layer-held
// handles and reused across steps, so a warmed-up Forward/Backward cycle
// performs no heap allocation. A network, its layers and its arena belong
// to the goroutine that calls Forward and Backward: the ownership rule
// throughout the framework is one network per learner goroutine — each
// drl worker builds its own network, which builds its own arena, so
// race-detected multi-threaded searches never share scratch.
//
// The one exception is the weight-gradient lane (lane.go). During a
// PolicyValueNet.Backward a helper goroutine may run a conv layer's
// weight-gradient job: it reads that layer's training input planes
// (pad[1]) and input shape and the gradient tensor handed to its
// Backward, writes that layer's Weight.G and Bias.G, and uses the conv
// scratch of its own Arena, never this one's. The caller may touch none
// of these until Backward has joined, which it does before it returns;
// the gradient tensor and pad[1] stay untouched because nothing rewrites
// them before the next training Forward. A caller that joins runs its
// own untaken jobs on this arena's conv scratch.
type Arena struct {
	floats int // total float64 capacity handed out (high-water bookkeeping)
	// The conv kernels' scratch, shared by every Conv2D on the arena: the
	// contents of convWork and convOffs never outlive one kernel call, and
	// those of convGrad (the padded gradient planes) one Conv2D.Backward
	// or one weight-gradient job.
	convWork []float64
	convOffs []int
	convGrad []float64
	// The plane sums of one Conv2D bias gradient.
	convSums []float64

	// deferDW is set for the length of one PolicyValueNet.Backward when
	// its conv layers hand their weight gradients to the lane.
	deferDW bool
	// pending counts this arena's lane jobs that have not finished.
	pending atomic.Int32
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// slice resizes *p to length n, allocating only when capacity is
// insufficient. Contents are unspecified: callers must fully overwrite or
// zero the result.
func (a *Arena) slice(p *[]float64, n int) []float64 {
	s := *p
	if cap(s) < n {
		s = make([]float64, n)
		a.floats += n
	}
	s = s[:n]
	*p = s
	return s
}

// tensorFor reshapes *p to the given shape, reusing its backing array when
// capacity allows. Contents are unspecified, as with slice. The shape
// slice must not be handed to fmt (or anything else that boxes it): that
// would force every variadic call site to heap-allocate its dimension
// list, defeating the arena.
func (a *Arena) tensorFor(p **tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panicBadDim(s)
		}
		n *= s
	}
	t := *p
	if t == nil {
		t = &tensor.Tensor{}
		*p = t
	}
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
		a.floats += n
	}
	t.Data = t.Data[:n]
	if cap(t.Shape) < len(shape) {
		t.Shape = make([]int, len(shape))
	}
	t.Shape = t.Shape[:len(shape)]
	copy(t.Shape, shape)
	return t
}

//go:noinline
func panicBadDim(s int) {
	panic(fmt.Sprintf("nn: arena tensor with invalid dimension %d", s))
}

// convScratch returns the scratch tensor.ConvFwdPad, ConvDWPad and
// ConvDXPad need for a conv layer of this shape (contents unspecified).
func (a *Arena) convScratch(outC, inC, h, w, k int) ([]float64, []int) {
	nf, ni := tensor.ConvWork(outC, inC, h, w, k)
	return a.slice(&a.convWork, nf), a.ints(&a.convOffs, ni)
}

// ints resizes *p to n (contents unspecified).
func (a *Arena) ints(p *[]int, n int) []int {
	s := *p
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	*p = s
	return s
}

// bytes resizes *p to n (contents unspecified).
func (a *Arena) bytes(p *[]uint8, n int) []uint8 {
	s := *p
	if cap(s) < n {
		s = make([]uint8, n)
	}
	s = s[:n]
	*p = s
	return s
}

// ensureArena lazily gives a standalone layer its own private arena; layers
// assembled into a PolicyValueNet share the network's arena instead (see
// attachArena).
func ensureArena(pp **Arena) *Arena {
	if *pp == nil {
		*pp = NewArena()
	}
	return *pp
}

// attachArena points every layer in the tree at the network-owned arena.
// Layers keep per-field buffer handles, so sharing one arena shares only
// the bookkeeping and the conv kernels' call-local scratch.
func attachArena(a *Arena, l Layer) {
	switch v := l.(type) {
	case *Conv2D:
		v.arena = a
	case *BatchNorm:
		v.arena = a
	case *ReLU:
		v.arena = a
	case *MaxPool:
		v.arena = a
	case *Dense:
		v.arena = a
	case *Sequential:
		for _, inner := range v.Layers {
			attachArena(a, inner)
		}
	case *Residual:
		v.arena = a
		attachArena(a, v.Body)
	}
}
