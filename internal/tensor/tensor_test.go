package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The helpers below have no caller outside the tests that pin their
// behaviour; they live here rather than in the package API.

// Reshape returns a view with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes size", t.Shape, shape))
	}
	return v
}

// FromSlice wraps data with the given shape; data length must match.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("tensor: data length %d != shape %v", len(data), shape))
	}
	return t
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Set writes the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Softmax returns the softmax of xs (numerically stable).
func Softmax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	SoftmaxInto(out, xs)
	return out
}

// At reads the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AxpyInPlace computes t += a*o.
func (t *Tensor) AxpyInPlace(a float64, o *Tensor) {
	if t.Size() != o.Size() {
		panic("tensor: size mismatch in AxpyInPlace")
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Norm returns the L2 norm of the tensor.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ClipInPlace clamps every element to [-c, c].
func (t *Tensor) ClipInPlace(c float64) {
	for i, v := range t.Data {
		if v > c {
			t.Data[i] = c
		} else if v < -c {
			t.Data[i] = -c
		}
	}
}

// MatVec computes y = A·x for a 2-D tensor A (m×n) and a vector x (n).
func MatVec(a *Tensor, x []float64) []float64 {
	if len(a.Shape) != 2 || a.Shape[1] != len(x) {
		panic(fmt.Sprintf("tensor: MatVec shapes %v · %d", a.Shape, len(x)))
	}
	m, n := a.Shape[0], a.Shape[1]
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		s := 0.0
		row := a.Data[i*n : (i+1)*n]
		for j, w := range row {
			s += w * x[j]
		}
		y[i] = s
	}
	return y
}

// MatVecT computes y = Aᵀ·x for a 2-D tensor A (m×n) and vector x (m).
func MatVecT(a *Tensor, x []float64) []float64 {
	if len(a.Shape) != 2 || a.Shape[0] != len(x) {
		panic(fmt.Sprintf("tensor: MatVecT shapes %vᵀ · %d", a.Shape, len(x)))
	}
	m, n := a.Shape[0], a.Shape[1]
	y := make([]float64, n)
	for i := 0; i < m; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Data[i*n : (i+1)*n]
		for j, w := range row {
			y[j] += w * xi
		}
	}
	return y
}

func TestNewAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || len(x.Data) != 24 {
		t.Fatalf("size = %d", x.Size())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("got %v", got)
	}
	if x.Data[5] != 7.5 {
		t.Fatal("row-major layout broken")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	x.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(4)
	v := x.Reshape(2, 2)
	v.Set(3, 1, 1)
	if x.Data[3] != 3 {
		t.Fatal("reshape copied data")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	x := New(3)
	c := x.Clone()
	c.Data[0] = 9
	if x.Data[0] != 0 {
		t.Fatal("clone aliases data")
	}
}

func TestArithmeticInPlace(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{10, 20}, 2)
	x.AddInPlace(y)
	x.ScaleInPlace(2)
	x.AxpyInPlace(-1, y)
	if x.Data[0] != 12 || x.Data[1] != 24 {
		t.Fatalf("data = %v", x.Data)
	}
}

func TestClip(t *testing.T) {
	x := FromSlice([]float64{-5, 0.5, 5}, 3)
	x.ClipInPlace(1)
	if x.Data[0] != -1 || x.Data[1] != 0.5 || x.Data[2] != 1 {
		t.Fatalf("clip = %v", x.Data)
	}
}

func TestNorm(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if x.Norm() != 5 {
		t.Fatalf("norm = %v", x.Norm())
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := MatVec(a, []float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("y = %v", y)
	}
}

// Property: MatVecT is the adjoint of MatVec: <Ax, y> == <x, Aᵀy>.
func TestMatVecAdjointQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(5), 1+r.Intn(5)
		a := Randn(r, 1, m, n)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		ax := MatVec(a, x)
		aty := MatVecT(a, y)
		var lhs, rhs float64
		for i := range y {
			lhs += ax[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 1, 1, 1})
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Numerically stable for huge logits.
	p = Softmax([]float64{1000, 999})
	if math.IsNaN(p[0]) || p[0] < p[1] {
		t.Fatalf("softmax overflow: %v", p)
	}
	sum := p[0] + p[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestRandnDeterministicPerSeed(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(5)), 1, 10)
	b := Randn(rand.New(rand.NewSource(5)), 1, 10)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randn not deterministic")
		}
	}
}
