package nn

import (
	"encoding/json"
	"fmt"
	"math"

	"routerless/internal/topo"
)

// Momentum is SGD with classical momentum, useful for the longer searches
// where plain SGD (the paper's Eqs. 19–20) converges slowly.
type Momentum struct {
	LR    float64
	Beta  float64 // momentum coefficient, e.g. 0.9
	Clip  float64
	vel   [][]float64
	bound *PolicyValueNet
}

// NewMomentum builds the optimizer for a specific network.
func NewMomentum(net *PolicyValueNet, lr, beta, clip float64) *Momentum {
	m := &Momentum{LR: lr, Beta: beta, Clip: clip, bound: net}
	for _, p := range net.Params() {
		m.vel = append(m.vel, make([]float64, p.W.Size()))
	}
	return m
}

// Step applies accumulated gradients with momentum and clears them.
func (m *Momentum) Step(net *PolicyValueNet) {
	if net != m.bound {
		panic("nn: Momentum optimizer bound to a different network")
	}
	for i, p := range net.Params() {
		v := m.vel[i]
		for j := range p.W.Data {
			g := p.G.Data[j]
			if m.Clip > 0 {
				if g > m.Clip {
					g = m.Clip
				} else if g < -m.Clip {
					g = -m.Clip
				}
			}
			v[j] = m.Beta*v[j] + g
			p.W.Data[j] -= m.LR * v[j]
		}
	}
	net.ZeroGrads()
}

// Adam is the adaptive-moment optimizer; provided for completeness of the
// training toolkit (the paper itself uses plain SGD).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float64
	bound                 *PolicyValueNet
}

// NewAdam builds Adam with standard defaults for the network.
func NewAdam(net *PolicyValueNet, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, bound: net}
	for _, p := range net.Params() {
		a.m = append(a.m, make([]float64, p.W.Size()))
		a.v = append(a.v, make([]float64, p.W.Size()))
	}
	return a
}

// Step applies accumulated gradients and clears them.
func (a *Adam) Step(net *PolicyValueNet) {
	if net != a.bound {
		panic("nn: Adam optimizer bound to a different network")
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range net.Params() {
		for j := range p.W.Data {
			g := p.G.Data[j]
			a.m[i][j] = a.Beta1*a.m[i][j] + (1-a.Beta1)*g
			a.v[i][j] = a.Beta2*a.v[i][j] + (1-a.Beta2)*g*g
			mh := a.m[i][j] / c1
			vh := a.v[i][j] / c2
			p.W.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
	net.ZeroGrads()
}

// ---------------------------------------------------------------------------
// Model serialization

// modelJSON is the on-disk network format.
type modelJSON struct {
	Config  Config    `json:"config"`
	Weights []float64 `json:"weights"`
	// RunStats holds the batch-norm running statistics, which are state
	// but not weights.
	RunStats [][]float64 `json:"run_stats"`
}

// MarshalModel serializes the network (architecture + weights + BN
// running statistics) to JSON, so long searches can resume across runs of
// cmd/nocexplore.
func MarshalModel(net *PolicyValueNet) ([]byte, error) {
	m := modelJSON{Config: net.Cfg, Weights: net.GetWeights()}
	for _, bn := range net.batchNorms() {
		m.RunStats = append(m.RunStats, append([]float64(nil), bn.RunMean...))
		m.RunStats = append(m.RunStats, append([]float64(nil), bn.RunVar...))
	}
	return json.Marshal(m)
}

// maxModelChannels bounds the BaseChannels a model file may declare. The
// widest network the CLIs build is the paper's (-full-dnn, 16 channels);
// the bound leaves headroom while keeping the largest acceptable
// architecture (18×18, 32 channels) to tens of megabytes of weights.
const maxModelChannels = 32

// checkModelConfig rejects architectures outside the range this repo
// builds. UnmarshalModel must build the network before it can compare
// weight counts, so an unchecked Config would let a few bytes of JSON
// panic NewPolicyValueNet or allocate the N⁴-float input of an enormous
// NoC. N is bounded like a topology file's side (topo.MaxJSONSide).
func checkModelConfig(c Config) error {
	if c.N < 2 || c.N > topo.MaxJSONSide {
		return fmt.Errorf("nn: model NoC side %d out of range 2..%d", c.N, topo.MaxJSONSide)
	}
	if c.BaseChannels < 1 || c.BaseChannels > maxModelChannels {
		return fmt.Errorf("nn: model base channels %d out of range 1..%d", c.BaseChannels, maxModelChannels)
	}
	if c.Pools < 0 {
		return fmt.Errorf("nn: model pool count %d is negative", c.Pools)
	}
	return nil
}

// UnmarshalModel reconstructs a network from MarshalModel output. It
// returns an error, never panics, on malformed or out-of-range input.
func UnmarshalModel(data []byte) (*PolicyValueNet, error) {
	var m modelJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if err := checkModelConfig(m.Config); err != nil {
		return nil, err
	}
	net := NewPolicyValueNet(m.Config, 0)
	if len(m.Weights) != net.NumParams() {
		return nil, fmt.Errorf("nn: model has %d weights, architecture needs %d",
			len(m.Weights), net.NumParams())
	}
	net.SetWeights(m.Weights)
	bns := net.batchNorms()
	if len(m.RunStats) != 2*len(bns) {
		return nil, fmt.Errorf("nn: model has %d BN stat vectors, want %d",
			len(m.RunStats), 2*len(bns))
	}
	for i, bn := range bns {
		mean, vr := m.RunStats[2*i], m.RunStats[2*i+1]
		if len(mean) != len(bn.RunMean) || len(vr) != len(bn.RunVar) {
			return nil, fmt.Errorf("nn: BN layer %d stats have %d/%d values, want %d channels",
				i, len(mean), len(vr), len(bn.RunMean))
		}
		copy(bn.RunMean, mean)
		copy(bn.RunVar, vr)
	}
	return net, nil
}

// batchNorms walks the network collecting BatchNorm layers in a stable
// order.
func (n *PolicyValueNet) batchNorms() []*BatchNorm {
	var out []*BatchNorm
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *BatchNorm:
			out = append(out, v)
		case *Sequential:
			for _, inner := range v.Layers {
				walk(inner)
			}
		case *Residual:
			walk(v.Body)
		}
	}
	walk(n.trunk)
	walk(n.pConv)
	walk(n.dConv)
	walk(n.vConv)
	return out
}
