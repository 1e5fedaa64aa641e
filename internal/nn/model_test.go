package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

var (
	jsonMarshal   = json.Marshal
	jsonUnmarshal = json.Unmarshal
)

func TestModelRoundTrip(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 17)
	// Touch BN running stats so they are nontrivial.
	in := randomHopMatrix(rand.New(rand.NewSource(18)), 4)
	for i := 0; i < 5; i++ {
		forward1(net, in, true)
	}
	want := forward1(net, in, false)

	data, err := MarshalModel(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	got := forward1(back, in, false)
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
	net := NewPolicyValueNet(testConfig(4), 1)
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
	net := NewPolicyValueNet(testConfig(4), 1)
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

// negativeRunVarModel returns a valid model file whose second BatchNorm
// statistics vector (the first layer's running variance) starts at -1.
func negativeRunVarModel(tb testing.TB) []byte {
	tb.Helper()
	data, err := MarshalModel(NewPolicyValueNet(testConfig(4), 1))
	if err != nil {
		tb.Fatal(err)
	}
	var m modelJSON
	if err := jsonUnmarshal(data, &m); err != nil {
		tb.Fatal(err)
	}
	m.RunStats[1][0] = -1
	bad, err := jsonMarshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	return bad
}

// A negative running variance makes 1/√(var+ε) NaN, so a model that
// carried one would load and then give NaN priors and values on every
// inference. It must be rejected; a zero variance stays legal (ε keeps the
// square root positive).
func TestUnmarshalModelRejectsNegativeRunVar(t *testing.T) {
	if _, err := UnmarshalModel(negativeRunVarModel(t)); err == nil || !strings.Contains(err.Error(), "variance") {
		t.Fatalf("err = %v, want a negative-variance error", err)
	}
	net := NewPolicyValueNet(testConfig(4), 1)
	clear(net.bns[0].RunVar)
	data, err := MarshalModel(net)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalModel(data)
	if err != nil {
		t.Fatalf("rejected zero variances: %v", err)
	}
	out := forward1(loaded, randomHopMatrix(rand.New(rand.NewSource(3)), 4), false)
	if math.IsNaN(out.Value) || math.IsNaN(out.CoordProbs[0][0]) {
		t.Fatalf("zero-variance model infers NaN: value %v", out.Value)
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
	for _, cfg := range []Config{{N: 18, BaseChannels: 4, Pools: 3}, DefaultConfig(18), testConfig(2)} {
		if err := checkModelConfig(cfg); err != nil {
			t.Errorf("rejected %+v: %v", cfg, err)
		}
	}
}

// FuzzUnmarshalModel feeds arbitrary bytes to the decoder nocexplore
// -load-model uses. It must never panic, and every model it accepts must
// survive an encode/decode round trip unchanged.
func FuzzUnmarshalModel(f *testing.F) {
	seed, err := MarshalModel(NewPolicyValueNet(testConfig(4), 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"config":{"N":1,"BaseChannels":4,"Pools":3},"weights":[]}`))
	f.Add([]byte(`{"config":{"N":2,"BaseChannels":1,"Pools":0},"weights":[]}`))
	f.Add(negativeRunVarModel(f))
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
