package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

var (
	jsonMarshal   = json.Marshal
	jsonUnmarshal = json.Unmarshal
)

// trainValueWith drives the value head toward a target with the given
// stepper and returns the final absolute error.
func trainValueWith(t *testing.T, step func(*PolicyValueNet), net *PolicyValueNet, target float64, iters int) float64 {
	t.Helper()
	in := randomHopMatrix(rand.New(rand.NewSource(31)), 4)
	var zero [4][]float64
	for g := range zero {
		zero[g] = make([]float64, 4)
	}
	for i := 0; i < iters; i++ {
		o := net.Forward(in, true)
		net.ZeroGrads()
		net.Backward(zero, 0, 2*(o.Value-target))
		step(net)
	}
	return math.Abs(net.Forward(in, false).Value - target)
}

func TestMomentumConverges(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 41)
	opt := NewMomentum(net, 5e-3, 0.9, 1)
	err := trainValueWith(t, opt.Step, net, -1.5, 120)
	if err > 0.5 {
		t.Fatalf("momentum error = %v", err)
	}
}

func TestAdamConverges(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 42)
	opt := NewAdam(net, 5e-3)
	err := trainValueWith(t, opt.Step, net, -1.5, 120)
	if err > 0.5 {
		t.Fatalf("adam error = %v", err)
	}
}

func TestMomentumBeatsPlainSGDOnSameBudget(t *testing.T) {
	mkErr := func(useMomentum bool) float64 {
		net := NewPolicyValueNet(TestConfig(4), 43)
		if useMomentum {
			opt := NewMomentum(net, 2e-3, 0.9, 1)
			return trainValueWith(t, opt.Step, net, -3, 60)
		}
		sgd := SGD{LR: 2e-3, Clip: 1}
		return trainValueWith(t, sgd.Step, net, -3, 60)
	}
	plain, mom := mkErr(false), mkErr(true)
	if mom >= plain {
		t.Logf("momentum %v vs sgd %v (not strictly better; acceptable)", mom, plain)
	}
	if mom > 2.5 {
		t.Fatalf("momentum made little progress: %v", mom)
	}
}

func TestOptimizerBoundToNetwork(t *testing.T) {
	a := NewPolicyValueNet(TestConfig(4), 1)
	b := NewPolicyValueNet(TestConfig(4), 2)
	opt := NewMomentum(a, 1e-3, 0.9, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched network")
		}
	}()
	opt.Step(b)
}

func TestModelRoundTrip(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 17)
	// Touch BN running stats so they are nontrivial.
	in := randomHopMatrix(rand.New(rand.NewSource(18)), 4)
	for i := 0; i < 5; i++ {
		net.Forward(in, true)
	}
	want := net.Forward(in, false)

	data, err := MarshalModel(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Forward(in, false)
	if got.Value != want.Value || got.Dir != want.Dir {
		t.Fatalf("round trip changed outputs: %v/%v vs %v/%v",
			got.Value, got.Dir, want.Value, want.Dir)
	}
	for g := 0; g < 4; g++ {
		for i := range want.CoordProbs[g] {
			if got.CoordProbs[g][i] != want.CoordProbs[g][i] {
				t.Fatal("policy probs differ after round trip")
			}
		}
	}
}

func TestUnmarshalModelRejectsCorrupt(t *testing.T) {
	if _, err := UnmarshalModel([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	net := NewPolicyValueNet(TestConfig(4), 1)
	data, _ := MarshalModel(net)
	// Truncate the weights array by re-marshalling a tampered struct.
	var m map[string]interface{}
	if err := jsonUnmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["weights"] = []float64{1, 2, 3}
	bad, _ := jsonMarshal(m)
	if _, err := UnmarshalModel(bad); err == nil {
		t.Fatal("accepted weight-count mismatch")
	}
}

// A BatchNorm statistics vector of the wrong length must be rejected: a
// short one would leave the layer's earlier statistics in place, a long one
// would be cut short, and either way the model would load without error.
func TestUnmarshalModelRejectsWrongLengthRunStats(t *testing.T) {
	net := NewPolicyValueNet(TestConfig(4), 1)
	data, err := MarshalModel(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		edit  func([]float64) []float64
		index int
	}{
		{"truncated mean", func(v []float64) []float64 { return v[:len(v)-1] }, 0},
		{"extended variance", func(v []float64) []float64 { return append(v, 1) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m modelJSON
			if err := jsonUnmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			m.RunStats[tc.index] = tc.edit(m.RunStats[tc.index])
			bad, err := jsonMarshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalModel(bad); err == nil {
				t.Fatalf("accepted run-stats vector %d of length %d", tc.index, len(m.RunStats[tc.index]))
			}
		})
	}
}

// Model files name the architecture UnmarshalModel builds, so their Config
// is checked before any allocation sized by it.
func TestUnmarshalModelRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"side 1", `{"config":{"N":1,"BaseChannels":4,"Pools":3},"weights":[]}`},
		{"side 0", `{"config":{"N":0,"BaseChannels":4,"Pools":3},"weights":[]}`},
		{"side above max", `{"config":{"N":19,"BaseChannels":4,"Pools":3},"weights":[]}`},
		{"huge side", `{"config":{"N":100000,"BaseChannels":4,"Pools":3},"weights":[]}`},
		{"zero channels", `{"config":{"N":4,"BaseChannels":0,"Pools":2},"weights":[]}`},
		{"negative channels", `{"config":{"N":4,"BaseChannels":-3,"Pools":2},"weights":[]}`},
		{"too many channels", `{"config":{"N":4,"BaseChannels":33,"Pools":2},"weights":[]}`},
		{"negative pools", `{"config":{"N":4,"BaseChannels":2,"Pools":-1},"weights":[]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalModel([]byte(tc.in)); err == nil {
				t.Fatalf("accepted %s", tc.in)
			}
		})
	}
	// The bounds admit every network the CLIs write: the default narrow
	// net and the paper's full-width one, at the largest searched side.
	for _, cfg := range []Config{{N: 18, BaseChannels: 4, Pools: 3}, DefaultConfig(18), TestConfig(2)} {
		if err := checkModelConfig(cfg); err != nil {
			t.Errorf("rejected %+v: %v", cfg, err)
		}
	}
}

// FuzzUnmarshalModel feeds arbitrary bytes to the decoder nocexplore
// -load-model uses. It must never panic, and every model it accepts must
// survive an encode/decode round trip unchanged.
func FuzzUnmarshalModel(f *testing.F) {
	seed, err := MarshalModel(NewPolicyValueNet(TestConfig(4), 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"config":{"N":1,"BaseChannels":4,"Pools":3},"weights":[]}`))
	f.Add([]byte(`{"config":{"N":2,"BaseChannels":1,"Pools":0},"weights":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		enc, err := MarshalModel(net)
		if err != nil {
			t.Fatalf("encode accepted model: %v", err)
		}
		back, err := UnmarshalModel(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted model: %v", err)
		}
		again, err := MarshalModel(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(again) {
			t.Fatal("round trip changed the model")
		}
	})
}
