// Package tensor implements the dense float64 tensors underlying the
// neural-network package. Only the operations the DRL framework needs are
// provided; everything is written against the standard library.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// Randn fills a new tensor with N(0, std²) samples.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Size returns the element count.
func (t *Tensor) Size() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// ZerosLike returns a zero tensor with t's shape.
func (t *Tensor) ZerosLike() *Tensor { return New(t.Shape...) }

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if t.Size() != o.Size() {
		panic("tensor: size mismatch in AddInPlace")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	if v == 0 {
		clear(t.Data) // compiles to memclr; Fill(0) is the ZeroGrads hot path
		return
	}
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SoftmaxInto writes the softmax of xs into dst (len(dst) == len(xs)),
// allocation-free for hot paths that reuse dst.
func SoftmaxInto(dst, xs []float64) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("tensor: SoftmaxInto dst length %d, want %d", len(dst), len(xs)))
	}
	max := xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range xs {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}
