package nn

import (
	"math"
	"math/rand"
	"testing"

	"routerless/internal/tensor"
)

// numericGrad estimates dLoss/dx[i] by central differences.
func numericGrad(f func() float64, x *tensor.Tensor, i int) float64 {
	const h = 1e-5
	orig := x.Data[i]
	x.Data[i] = orig + h
	up := f()
	x.Data[i] = orig - h
	down := f()
	x.Data[i] = orig
	return (up - down) / (2 * h)
}

// checkLayerGradients validates input and parameter gradients of a layer
// against numerical differentiation using loss = sum(out * lossW).
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x, true)
	lossW := make([]float64, out.Size())
	for i := range lossW {
		lossW[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		o := l.Forward(x, true)
		s := 0.0
		for i, v := range o.Data {
			s += v * lossW[i]
		}
		return s
	}
	// Analytic gradients.
	for _, p := range l.Params() {
		p.G.Fill(0)
	}
	_ = out
	grad := &tensor.Tensor{Shape: out.Shape, Data: append([]float64(nil), lossW...)}
	l.Forward(x, true) // refresh caches
	dx := l.Backward(grad, true)

	// Check input gradient at sampled positions.
	for k := 0; k < 10 && k < x.Size(); k++ {
		i := rng.Intn(x.Size())
		want := numericGrad(loss, x, i)
		if math.Abs(dx.Data[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d]: analytic %v, numeric %v", i, dx.Data[i], want)
		}
	}
	// Check parameter gradients at sampled positions.
	for _, p := range l.Params() {
		for k := 0; k < 6 && k < p.W.Size(); k++ {
			i := rng.Intn(p.W.Size())
			want := numericGrad(loss, p.W, i)
			got := p.G.Data[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %s grad[%d]: analytic %v, numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(rng, "c", 2, 3, 3)
	x := tensor.Randn(rng, 1, 2, 1, 5, 5)
	checkLayerGradients(t, l, x, 1e-4)
}

func TestConv2DShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2D(rng, "c", 1, 4, 5)
	x := tensor.Randn(rng, 1, 1, 1, 8, 8)
	out := l.Forward(x, true)
	if out.Shape[0] != 4 || out.Shape[2] != 8 || out.Shape[3] != 8 {
		t.Fatalf("shape = %v", out.Shape)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewDense(rng, "d", 12, 7)
	x := tensor.Randn(rng, 1, 12)
	checkLayerGradients(t, l, x, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewReLU()
	x := tensor.Randn(rng, 1, 3, 1, 4, 4)
	// Avoid kink points.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 1e-3 {
			x.Data[i] = 0.5
		}
	}
	checkLayerGradients(t, l, x, 1e-6)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewMaxPool()
	x := tensor.Randn(rng, 1, 2, 1, 6, 6)
	checkLayerGradients(t, l, x, 1e-6)
}

func TestMaxPoolShapeOddInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewMaxPool()
	x := tensor.Randn(rng, 1, 1, 1, 5, 7)
	out := l.Forward(x, true)
	if out.Shape[2] != 2 || out.Shape[3] != 3 {
		t.Fatalf("shape = %v", out.Shape)
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewBatchNorm("bn", 3)
	x := tensor.Randn(rng, 1, 3, 1, 4, 4)
	checkLayerGradients(t, l, x, 1e-3)
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewBatchNorm("bn", 2)
	x := tensor.Randn(rng, 3, 2, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] += 5 // offset mean
	}
	out := l.Forward(x, true)
	for c := 0; c < 2; c++ {
		ch := out.Data[c*64 : (c+1)*64]
		mean := 0.0
		for _, v := range ch {
			mean += v
		}
		mean /= 64
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean = %v after BN", c, mean)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewBatchNorm("bn", 1)
	// Train on shifted data to move the running stats.
	for i := 0; i < 50; i++ {
		x := tensor.Randn(rng, 1, 1, 1, 4, 4)
		for j := range x.Data {
			x.Data[j] += 3
		}
		l.Forward(x, true)
	}
	// Eval on the same distribution: output should be near zero-mean.
	x := tensor.Randn(rng, 0.01, 1, 1, 4, 4)
	for j := range x.Data {
		x.Data[j] += 3
	}
	out := l.Forward(x, false)
	mean := 0.0
	for _, v := range out.Data {
		mean += v
	}
	mean /= float64(len(out.Data))
	if math.Abs(mean) > 0.5 {
		t.Fatalf("eval-mode mean = %v, running stats not used", mean)
	}
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewResidual(rng, "res", 2)
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	checkLayerGradients(t, l, x, 1e-3)
}

func TestResidualShortcutCarriesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewResidual(rng, "res", 2)
	// Zero the body's final BN gamma so F(x) == beta == 0; the output must
	// then be ReLU(x).
	for _, p := range l.Params() {
		if p.Name == "res.bn2.gamma" {
			p.W.Fill(0)
		}
	}
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	out := l.Forward(x, true)
	for i, v := range x.Data {
		want := v
		if want < 0 {
			want = 0
		}
		if math.Abs(out.Data[i]-want) > 1e-9 {
			t.Fatalf("shortcut broken at %d: out %v, want relu(x) %v", i, out.Data[i], want)
		}
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewSequential(
		NewConv2D(rng, "c1", 1, 2, 3),
		NewReLU(),
		NewMaxPool(),
		NewDense(rng, "d", 2*2*2, 3),
	)
	x := tensor.Randn(rng, 1, 1, 1, 4, 4)
	checkLayerGradients(t, l, x, 1e-4)
}
