package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The helpers below have no caller outside the tests; they live here
// rather than in the package API.

// testConfig returns a narrow network for fast tests.
func testConfig(n int) Config { return Config{N: n, BaseChannels: 2, Pools: 2} }

// Params returns every learnable parameter.
func (n *PolicyValueNet) Params() []*Param { return n.params }

// GetGrads flattens all gradients.
func (n *PolicyValueNet) GetGrads() []float64 {
	out := make([]float64, n.NumParams())
	n.CopyGradsInto(out)
	return out
}

// Scratch returns the network's arena.
func (n *PolicyValueNet) Scratch() *Arena { return n.arena }

// ScratchFloats reports the total float64 scratch capacity this arena has
// allocated, an observability hook for sizing the steady-state footprint.
func (a *Arena) ScratchFloats() int { return a.floats }

// SGD is a plain clipped stochastic-gradient step (Eqs. 19–20) on a
// network's own parameters; production training updates the drl
// parameter server's flat weight vector instead.
type SGD struct{ LR, Clip float64 }

// Step applies the accumulated gradients and clears them.
func (s SGD) Step(n *PolicyValueNet) {
	for _, p := range n.params {
		for i, gv := range p.G.Data[:len(p.W.Data)] {
			if s.Clip > 0 {
				gv = min(max(gv, -s.Clip), s.Clip)
			}
			p.W.Data[i] -= s.LR * gv
		}
		clear(p.G.Data)
	}
}

func randomHopMatrix(rng *rand.Rand, n int) []float64 {
	side := n * n
	m := make([]float64, side*side)
	for i := range m {
		m[i] = float64(rng.Intn(5 * n))
	}
	return m
}

// forward1 is the one-sample call: it evaluates s and returns a fresh
// Output.
func forward1(net *PolicyValueNet, s []float64, train bool) *Output {
	outs := make([]Output, 1)
	net.Forward([][]float64{s}, outs, train)
	return &outs[0]
}

// backward1 back-propagates one sample's head gradients, the logit
// gradients given as the four coordinate groups.
func backward1(net *PolicyValueNet, dLogits [4][]float64, dDirPre, dValue float64) {
	flat := make([]float64, 0, 4*net.Cfg.N)
	for _, g := range dLogits {
		flat = append(flat, g...)
	}
	net.Backward(flat, []float64{dDirPre}, []float64{dValue})
}

func TestNetworkOutputShapes(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 1)
	out := forward1(net, randomHopMatrix(rand.New(rand.NewSource(2)), 4), false)
	for g := 0; g < 4; g++ {
		if len(out.CoordProbs[g]) != 4 {
			t.Fatalf("group %d length %d", g, len(out.CoordProbs[g]))
		}
		sum := 0.0
		for _, p := range out.CoordProbs[g] {
			if p < 0 || p > 1 {
				t.Fatalf("prob out of range: %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("group %d probs sum %v", g, sum)
		}
	}
	if out.Dir <= -1 || out.Dir >= 1 {
		t.Fatalf("dir = %v, want in (-1,1)", out.Dir)
	}
	if math.IsNaN(out.Value) {
		t.Fatal("NaN value")
	}
}

func TestNetworkRejectsBadInput(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong input size")
		}
	}()
	net.Forward([][]float64{make([]float64, 10)}, make([]Output, 1), false)
}

func TestNetworkDeterministicPerSeed(t *testing.T) {
	in := randomHopMatrix(rand.New(rand.NewSource(3)), 4)
	a := forward1(NewPolicyValueNet(testConfig(4), 7), in, false)
	b := forward1(NewPolicyValueNet(testConfig(4), 7), in, false)
	if a.Value != b.Value || a.Dir != b.Dir {
		t.Fatal("same seed, different outputs")
	}
	c := forward1(NewPolicyValueNet(testConfig(4), 8), in, false)
	if a.Value == c.Value {
		t.Fatal("different seeds produced identical value (suspicious)")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	a := NewPolicyValueNet(testConfig(4), 1)
	b := NewPolicyValueNet(testConfig(4), 2)
	in := randomHopMatrix(rand.New(rand.NewSource(4)), 4)
	if forward1(a, in, false).Value == forward1(b, in, false).Value {
		t.Fatal("nets should differ before sync")
	}
	b.SetWeights(a.GetWeights())
	// Running stats are not weights; use train=false after syncing BN run
	// stats too... they start identical (fresh nets), so eval matches.
	av := forward1(a, in, false)
	bv := forward1(b, in, false)
	if av.Value != bv.Value || av.Dir != bv.Dir {
		t.Fatalf("weight sync failed: %v vs %v", av.Value, bv.Value)
	}
	if a.NumParams() != len(a.GetWeights()) {
		t.Fatalf("NumParams %d != flat weights %d", a.NumParams(), len(a.GetWeights()))
	}
}

// TestGetWeightsAllocatesOnce pins GetWeights to one allocation on a
// warmed net, the parameters in order, and checks that SetWeights of it
// on another net round-trips every bit.
func TestGetWeightsAllocatesOnce(t *testing.T) {
	cfg := Config{N: 10, BaseChannels: 4, Pools: 3}
	a, b := NewPolicyValueNet(cfg, 3), NewPolicyValueNet(cfg, 4)
	w := a.GetWeights()
	if allocs := testing.AllocsPerRun(10, func() { a.GetWeights() }); allocs != 1 {
		t.Fatalf("GetWeights allocates %.1f times, want 1", allocs)
	}
	var want []float64
	for _, p := range a.Params() {
		want = append(want, p.W.Data...)
	}
	requireSameBits(t, "GetWeights", w, want)
	b.SetWeights(w)
	requireSameBits(t, "GetWeights after SetWeights(GetWeights())", b.GetWeights(), w)
}

// End-to-end gradient check through the full two-headed network: loss =
// sum of logits*w + dirPre*wd + value*wv, differentiated w.r.t. a few
// parameters.
func TestNetworkBackwardGradientCheck(t *testing.T) {
	net := NewPolicyValueNet(Config{N: 3, BaseChannels: 1, Pools: 1}, 5)
	rng := rand.New(rand.NewSource(6))
	in := randomHopMatrix(rng, 3)

	var lw [4][]float64
	for g := range lw {
		lw[g] = make([]float64, 3)
		for i := range lw[g] {
			lw[g][i] = rng.NormFloat64()
		}
	}
	wd, wv := rng.NormFloat64(), rng.NormFloat64()

	loss := func() float64 {
		o := forward1(net, in, true)
		s := 0.0
		for g := 0; g < 4; g++ {
			for i, w := range lw[g] {
				s += o.CoordLogits[g][i] * w
			}
		}
		return s + o.DirPre*wd + o.Value*wv
	}

	net.ZeroGrads()
	forward1(net, in, true)
	backward1(net, lw, wd, wv)

	checked := 0
	for _, p := range net.Params() {
		if p.W.Size() == 0 {
			continue
		}
		i := rng.Intn(p.W.Size())
		const h = 1e-5
		orig := p.W.Data[i]
		p.W.Data[i] = orig + h
		up := loss()
		p.W.Data[i] = orig - h
		down := loss()
		p.W.Data[i] = orig
		want := (up - down) / (2 * h)
		got := p.G.Data[i]
		if math.Abs(got-want) > 2e-3*(1+math.Abs(want)) {
			t.Fatalf("param %s grad[%d]: analytic %v numeric %v", p.Name, i, got, want)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d params checked", checked)
	}
}

// Policy-gradient sanity: pushing the gradient of -log π(a) for a fixed
// action must increase that action's probability.
func TestPolicyGradientIncreasesActionProbability(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 9)
	in := randomHopMatrix(rand.New(rand.NewSource(10)), 4)
	action := [4]int{1, 2, 3, 0}

	prob := func() float64 {
		o := forward1(net, in, false)
		p := 1.0
		for g := 0; g < 4; g++ {
			p *= o.CoordProbs[g][action[g]]
		}
		return p
	}
	before := prob()
	sgd := SGD{LR: 0.05}
	for step := 0; step < 20; step++ {
		o := forward1(net, in, true)
		var dLogits [4][]float64
		for g := 0; g < 4; g++ {
			dLogits[g] = make([]float64, 4)
			for i := 0; i < 4; i++ {
				// d(-log p_a)/d logit_i = p_i - 1{i==a}
				dLogits[g][i] = o.CoordProbs[g][i]
				if i == action[g] {
					dLogits[g][i] -= 1
				}
			}
		}
		net.ZeroGrads()
		backward1(net, dLogits, 0, 0)
		sgd.Step(net)
	}
	after := prob()
	if after <= before {
		t.Fatalf("action probability did not increase: %v -> %v", before, after)
	}
}

// Value-head regression sanity: training V toward a target reduces error.
func TestValueHeadLearnsTarget(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 11)
	in := randomHopMatrix(rand.New(rand.NewSource(12)), 4)
	target := -2.5
	sgd := SGD{LR: 0.02}
	var zero [4][]float64
	for g := range zero {
		zero[g] = make([]float64, 4)
	}
	first := math.Abs(forward1(net, in, false).Value - target)
	for step := 0; step < 300; step++ {
		o := forward1(net, in, true)
		// loss = (target - V)^2, dL/dV = 2(V - target)
		net.ZeroGrads()
		backward1(net, zero, 0, 2*(o.Value-target))
		sgd.Step(net)
	}
	last := math.Abs(forward1(net, in, false).Value - target)
	if last >= first {
		t.Fatalf("value error did not shrink: %v -> %v", first, last)
	}
	if last > 0.5 {
		t.Fatalf("value error still large: %v", last)
	}
}

func TestPoolsClampedForSmallInputs(t *testing.T) {
	// N=2 -> input 4x4; three pools would erase it. Must not panic.
	net := NewPolicyValueNet(Config{N: 2, BaseChannels: 1, Pools: 3}, 1)
	out := forward1(net, randomHopMatrix(rand.New(rand.NewSource(1)), 2), false)
	if len(out.CoordProbs[0]) != 2 {
		t.Fatalf("bad output for N=2")
	}
}
