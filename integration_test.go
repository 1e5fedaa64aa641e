package routerless_test

import (
	"encoding/json"
	"testing"

	"routerless"
	"routerless/internal/drl"
	"routerless/internal/nn"
	"routerless/internal/rec"
	"routerless/internal/sim"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// TestPipelineSearchSimulatePower exercises the full stack exactly the way
// the cmd tools chain it: DRL search -> JSON round trip -> cycle-accurate
// simulation -> power model.
func TestPipelineSearchSimulatePower(t *testing.T) {
	design, err := routerless.Explore(routerless.ExploreOptions{
		N: 4, OverlapCap: 6, Episodes: 6, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}

	// JSON round trip (nocgen -> nocsim contract).
	data, err := json.Marshal(design.Topology)
	if err != nil {
		t.Fatal(err)
	}
	var back topo.Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != design.Topology.Fingerprint() {
		t.Fatal("topology mutated across the JSON boundary")
	}

	// Simulate the deserialized topology under two patterns.
	for _, p := range []traffic.Pattern{traffic.UniformRandom, traffic.Transpose} {
		res := routerless.Simulate(&back, routerless.SimulateOptions{
			Pattern: p, Rate: 0.05, WarmupCycles: 200, MeasureCycles: 2000, Seed: 2,
		})
		if res.PacketsDone == 0 {
			t.Fatalf("%v: nothing delivered", p)
		}
		if res.AvgHops+0.001 < 1 {
			t.Fatalf("%v: avg hops %v", p, res.AvgHops)
		}
		pow := routerless.DefaultPowerParams().Routerless(6, routerless.ActivityOf(res))
		if pow.Total() <= 0 || pow.Total() > 5 {
			t.Fatalf("%v: implausible power %v mW", p, pow.Total())
		}
	}
}

// TestPipelineModelResume verifies warm-starting a search from a saved
// model (the nocexplore -save-model/-load-model path).
func TestPipelineModelResume(t *testing.T) {
	cfg := drl.DefaultConfig(4, 6)
	cfg.Episodes = 4
	cfg.NN = nn.Config{N: 4, BaseChannels: 2, Pools: 2}
	s := drl.MustNew(cfg)
	s.Run()
	net := s.Model()
	if net == nil {
		t.Fatal("no model after DNN search")
	}

	blob, err := nn.MarshalModel(net)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Episodes = 3
	cfg2.Init = loaded
	s2, err := drl.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res := s2.Run(); res.Episodes != 3 {
		t.Fatalf("resumed search ran %d episodes", res.Episodes)
	}

	// A warm-start model of another architecture must be rejected.
	cfg3 := cfg
	cfg3.Init = nn.NewPolicyValueNet(nn.Config{N: 4, BaseChannels: 3, Pools: 2}, 0)
	if _, err := drl.New(cfg3); err == nil {
		t.Fatal("accepted an Init model of another architecture")
	}
}

// TestPipelineFailureRecovery chains design -> loop failure -> degraded
// simulation: a failed link disables its whole loop, so the degraded
// design is the topology without that loop (the §6.7 method), and traffic
// between the pairs it still connects must drain.
func TestPipelineFailureRecovery(t *testing.T) {
	tp := rec.MustGenerate(4).Clone()
	tp.RemoveLoop(0)
	ring := sim.NewRing(tp, sim.DefaultRingConfig())
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 128, 7)
	sent := 0
	for i := 0; i < 1500; i++ {
		for _, req := range src.Tick() {
			if tp.Dist(topo.NodeFromID(req.Src, 4), topo.NodeFromID(req.Dst, 4)) < 0 {
				continue
			}
			ring.Inject(&sim.Packet{Src: req.Src, Dst: req.Dst, NumFlits: req.NumFlits, Done: -1})
			sent++
		}
		ring.Step()
	}
	for i := 0; i < 2000 && ring.InFlight() > 0; i++ {
		ring.Step()
	}
	if sent == 0 || ring.InFlight() != 0 {
		t.Fatalf("degraded pipeline stalled: sent=%d inflight=%d", sent, ring.InFlight())
	}
}
