package nn

import (
	"encoding/json"
	"fmt"

	"routerless/internal/topo"
)

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
	for _, bn := range net.bns {
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
	if len(m.RunStats) != 2*len(net.bns) {
		return nil, fmt.Errorf("nn: model has %d BN stat vectors, want %d",
			len(m.RunStats), 2*len(net.bns))
	}
	for i, bn := range net.bns {
		mean, vr := m.RunStats[2*i], m.RunStats[2*i+1]
		if len(mean) != len(bn.RunMean) || len(vr) != len(bn.RunVar) {
			return nil, fmt.Errorf("nn: BN layer %d stats have %d/%d values, want %d channels",
				i, len(mean), len(vr), len(bn.RunMean))
		}
		for c, v := range vr {
			// 1/√(var+ε) of a variance below -ε is NaN, and every inference
			// of the model with it.
			if v < 0 {
				return nil, fmt.Errorf("nn: BN layer %d channel %d running variance %g is negative", i, c, v)
			}
		}
		copy(bn.RunMean, mean)
		copy(bn.RunVar, vr)
	}
	return net, nil
}
