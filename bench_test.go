// Benchmarks regenerating every table and figure in the paper's
// evaluation (§6), plus micro-benchmarks of the core components. Each
// experiment bench prints its report once (quick budgets) and reports its
// headline numbers as custom metrics; run
//
//	go test -bench=. -benchmem
//
// or use cmd/benchtab for the full-budget versions.
package routerless_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"routerless/internal/chiplet"
	"routerless/internal/exp"
	"routerless/internal/nn"
	"routerless/internal/noc3d"
	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/search"
	"routerless/internal/sim"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

var (
	reportOnce sync.Map // experiment id -> struct{}
	benchOpts  = exp.Options{Quick: true, Seed: 1}
)

// runExperiment runs an experiment through exp.ByID, which gives every
// iteration a memo of its own so each one redoes all of its work, and
// logs the regenerated table once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var rep *exp.Report
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = exp.ByID(id, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
	if _, logged := reportOnce.LoadOrStore(id, struct{}{}); !logged {
		b.Log("\n" + rep.String())
	}
}

// --- One bench per table -------------------------------------------------

func BenchmarkTable1Epsilon(b *testing.B) {
	runExperiment(b, "T1")
}

func BenchmarkTable2LargerNoCs(b *testing.B) {
	runExperiment(b, "T2")
}

func BenchmarkTable3Overlap8x8(b *testing.B) {
	runExperiment(b, "T3")
}

func BenchmarkTable4Overlap10x10(b *testing.B) {
	runExperiment(b, "T4")
}

func BenchmarkTable5ParsecExecTime(b *testing.B) {
	runExperiment(b, "T5")
}

// --- One bench per figure ------------------------------------------------

func BenchmarkFigure9Topology4x4(b *testing.B) {
	runExperiment(b, "F9")
}

func BenchmarkFigure10SyntheticLatency(b *testing.B) {
	runExperiment(b, "F10")
}

func BenchmarkFigure11ParsecLatency(b *testing.B) {
	runExperiment(b, "F11")
}

func BenchmarkFigure12ParsecHops(b *testing.B) {
	runExperiment(b, "F12")
}

func BenchmarkFigure13PowerPerf(b *testing.B) {
	runExperiment(b, "F13")
}

func BenchmarkFigure14ParsecPower(b *testing.B) {
	runExperiment(b, "F14")
}

func BenchmarkFigure15Area(b *testing.B) {
	runExperiment(b, "F15")
}

func BenchmarkFigure16Scaling(b *testing.B) {
	runExperiment(b, "F16")
}

// --- Section studies and ablations ----------------------------------------

func BenchmarkSection61Threads(b *testing.B) {
	runExperiment(b, "S6.1")
}

func BenchmarkSection67Reliability(b *testing.B) {
	runExperiment(b, "S6.7")
}

func BenchmarkAblationNoDNN(b *testing.B) {
	runExperiment(b, "A")
}

func BenchmarkAblationGreedyOnly(b *testing.B) {
	// Covered inside the ablation table; kept as a direct measurement of
	// Algorithm 1's full-design cost.
	for i := 0; i < b.N; i++ {
		env := rl.NewEnv(8, 14)
		rl.GreedyComplete(env)
		if !env.FullyConnected() {
			b.Fatal("greedy failed to connect 8x8")
		}
	}
}

func BenchmarkAblationReward(b *testing.B) {
	runExperiment(b, "A")
}

func BenchmarkIMRBaseline(b *testing.B) {
	runExperiment(b, "IMR")
}

// --- §6.8 broad-applicability instantiations --------------------------------

func BenchmarkBroad3DNoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := search.DefaultConfig()
		cfg.Episodes = 6
		cfg.Epsilon = 0.3
		cfg.MaxSteps = 32
		cons := noc3d.Constraints{ExtraPorts: 2, MaxLen: 4, Budget: 6}
		best, base, _ := noc3d.Explore(4, 2, cons, cfg)
		if best == nil || best.AvgHops() >= base {
			b.Fatal("3-D exploration failed to improve on the base mesh")
		}
		b.ReportMetric(100*(base-best.AvgHops())/base, "%hop_reduction")
	}
}

func BenchmarkBroadChiplet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := search.DefaultConfig()
		cfg.Episodes = 8
		cfg.Epsilon = 0.4
		cfg.MaxSteps = 32
		best, _ := chiplet.Explore(chiplet.DefaultSystem(), cfg)
		if best == nil || !best.Connected() {
			b.Fatal("chiplet exploration failed to connect the package")
		}
		b.ReportMetric(best.AvgInterChipletHops(1000), "interchiplet_hops")
	}
}

// BenchmarkExplore is the §6.8 iteration loop (make bench-explore): one
// op is one 50-episode search at the explore-generic workload's ε and
// step caps, noc3d on DefaultConstraints(6, 2) and chiplet on
// DefaultSystem(), both on the shared search.Graph/search.Placement core.
func BenchmarkExplore(b *testing.B) {
	cfg := func(eps float64, steps int) search.Config {
		c := search.DefaultConfig()
		c.Episodes, c.Epsilon, c.MaxSteps, c.Seed = 50, eps, steps, 1
		return c
	}
	b.Run("noc3d-6x6x2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			best, base, _ := noc3d.Explore(6, 2, noc3d.DefaultConstraints(6, 2), cfg(0.3, 64))
			b.ReportMetric(best.AvgHops()/base, "hops/base")
		}
	})
	b.Run("chiplet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			best, _ := chiplet.Explore(chiplet.DefaultSystem(), cfg(0.4, 48))
			b.ReportMetric(best.AvgInterChipletHops(1000), "interchiplet_hops")
		}
	})
}

// --- Micro-benchmarks of the core components -------------------------------

func BenchmarkRingStep(b *testing.B) {
	for _, n := range []int{4, 8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			t := rec.MustGenerate(n)
			net := sim.NewRing(t, sim.DefaultRingConfig())
			src := traffic.NewInjector(n, n, traffic.UniformRandom, 0.1, 128, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range src.Tick() {
					net.Inject(&sim.Packet{Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Done: -1})
				}
				net.Step()
			}
		})
	}
}

func BenchmarkMeshStep(b *testing.B) {
	net := sim.NewMesh(8, 8, sim.MeshN(2))
	src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.1, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range src.Tick() {
			net.Inject(&sim.Packet{Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Done: -1})
		}
		net.Step()
	}
}

// simRunRates is the injection-rate matrix for the SimRun benchmarks:
// 0.01 and 0.02 cover the below-saturation regime where nearly every
// figure-sweep point lives (and where active-set sparse stepping pays
// off), 0.1 the near-saturation path where it must not regress. The bare
// ring8x8/mesh8x8 names keep their historical meaning (rate 0.1) so
// BENCH_PR3.json comparisons stay valid. BenchmarkSimRunDense in
// internal/sim/bench_test.go copies this matrix and BenchmarkSimRun's run
// budget; change both together.
var simRunRates = []struct {
	suffix string
	rate   float64
}{
	{"-r0.01", 0.01},
	{"-r0.02", 0.02},
	{"", 0.1},
}

// BenchmarkSimRun measures one full measurement point (warmup + measure +
// drain) — the unit of work every figure sweep repeats hundreds of times —
// across the rate matrix. internal/sim's BenchmarkSimRunDense runs the same
// matrix on the dense reference walk.
func BenchmarkSimRun(b *testing.B) {
	cfg := sim.RunConfig{WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 4000}
	for _, row := range simRunRates {
		row := row
		b.Run("ring8x8"+row.suffix, func(b *testing.B) {
			t := rec.MustGenerate(8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net := sim.NewRing(t, sim.DefaultRingConfig())
				src := traffic.NewInjector(8, 8, traffic.UniformRandom, row.rate, 128, 1)
				res := sim.Run(net, src, cfg)
				if res.PacketsDone == 0 {
					b.Fatal("no packets delivered")
				}
			}
		})
	}
	for _, row := range simRunRates {
		row := row
		b.Run("mesh8x8"+row.suffix, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net := sim.NewMesh(8, 8, sim.MeshN(2))
				src := traffic.NewInjector(8, 8, traffic.UniformRandom, row.rate, 256, 1)
				res := sim.Run(net, src, cfg)
				if res.PacketsDone == 0 {
					b.Fatal("no packets delivered")
				}
			}
		})
	}
}

// BenchmarkSimRunTraced is BenchmarkSimRun's ring8x8 case with span
// recording enabled: the run owns a trace shard and records its
// run/warmup/measure/drain phase spans. Phase spans are per-run (four End
// calls per Run), so the delta against BenchmarkSimRun is the whole cost
// of -trace on a measurement point (`make bench-obs`; BENCH_PR6.json).
func BenchmarkSimRunTraced(b *testing.B) {
	t := rec.MustGenerate(8)
	tr := obs.NewTracer(1 << 14)
	sh := tr.Shard("sim.bench")
	cfg := sim.RunConfig{WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 4000, Trace: sh}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := sim.NewRing(t, sim.DefaultRingConfig())
		src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.1, 128, 1)
		res := sim.Run(net, src, cfg)
		if res.PacketsDone == 0 {
			b.Fatal("no packets delivered")
		}
	}
}

// BenchmarkDNNForward measures the one-sample inference call each drl
// worker makes per policy evaluation when no broker runs.
func BenchmarkDNNForward(b *testing.B) {
	for _, n := range []int{4, 8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			net := nn.NewPolicyValueNet(nn.Config{N: n, BaseChannels: 4, Pools: 3}, 1)
			states := benchStates(n, 1)
			outs := make([]nn.Output, 1)
			net.Forward(states, outs, false) // populate the output slices
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(states, outs, false)
			}
		})
	}
}

// BenchmarkDNNForwardBatch measures the batched inference call the
// internal/infer broker runs: one Forward over B stacked states, reported
// per batch (divide by B for the per-sample cost against
// BenchmarkDNNForward, the B=1 case). Before/after numbers for PR 5 live
// in BENCH_PR5.json.
func BenchmarkDNNForwardBatch(b *testing.B) {
	for _, n := range []int{4, 8, 10} {
		for _, bs := range []int{8, 32} {
			b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n)+"/B"+strconv.Itoa(bs), func(b *testing.B) {
				net := nn.NewPolicyValueNet(nn.Config{N: n, BaseChannels: 4, Pools: 3}, 1)
				states := benchStates(n, bs)
				outs := make([]nn.Output, bs)
				net.WarmBatch(bs)
				net.Forward(states, outs, false) // populate the output slices
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Forward(states, outs, false)
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(bs)*1e9, "ns/sample")
			})
		}
	}
}

func benchStates(n, bs int) [][]float64 {
	rng := rand.New(rand.NewSource(2))
	states := make([][]float64, bs)
	for s := range states {
		in := make([]float64, n*n*n*n)
		for i := range in {
			in[i] = rng.Float64() * 40
		}
		states[s] = in
	}
	return states
}

// BenchmarkDNNTrainStep measures one one-sample training step: a training
// Forward, Backward, and SGD update.
func BenchmarkDNNTrainStep(b *testing.B) {
	net := nn.NewPolicyValueNet(nn.Config{N: 4, BaseChannels: 4, Pools: 3}, 1)
	env := rl.NewEnv(4, 6)
	states := [][]float64{env.StateInto(nil)}
	outs := make([]nn.Output, 1)
	dl := make([]float64, 4*4)
	for g := 0; g < 4; g++ {
		dl[g*4+g%4] = 0.5
	}
	dDir, dVal := []float64{0.1}, []float64{-0.5}
	// Tiny learning rate with clipping: the bench repeats one gradient
	// thousands of times, which would diverge at training rates.
	const lr, clip = 1e-6, 0.1
	w, g := net.GetWeights(), make([]float64, net.NumParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(states, outs, true)
		net.Backward(dl, dDir, dVal)
		net.CopyGradsInto(g)
		for j, gv := range g {
			w[j] -= lr * min(max(gv, -clip), clip)
		}
		net.SetWeights(w)
		net.ZeroGrads()
	}
}

func BenchmarkGreedyScan(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			env := rl.NewEnv(n, 2*(n-1))
			env.Step(rl.Action{X1: 0, Y1: 0, X2: n - 1, Y2: n - 1, Dir: topo.Clockwise})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := rl.Greedy(env); !ok {
					b.Fatal("no action")
				}
			}
		})
	}
}

// BenchmarkGreedyComplete measures a full Algorithm 1 design construction
// from a blank grid — the episode completion phase every DRL exploration
// cycle runs (Fig. 4), and the unit the incremental score table speeds up.
// Before/after numbers for PR 4 live in BENCH_PR4.json. The 16×16 row
// times one of Table 2's large grids; a process builds a grid's shared
// rectangle tables once, so they are built before the timer starts.
func BenchmarkGreedyComplete(b *testing.B) {
	// Smallest caps under which Algorithm 1 reaches full connectivity.
	for _, g := range []struct{ n, cap int }{{8, 14}, {10, 20}, {16, 39}} {
		n, cap := g.n, g.cap
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			topo.Tables(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env := rl.NewEnv(n, cap)
				rl.GreedyComplete(env)
				if !env.FullyConnected() {
					b.Fatal("greedy failed to connect the design")
				}
			}
		})
	}
}

// BenchmarkFingerprint measures the MCTS state key on a complete design —
// called once per episode step to look up tree nodes.
func BenchmarkFingerprint(b *testing.B) {
	t := rec.MustGenerate(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(t.Fingerprint()) == 0 {
			b.Fatal("empty fingerprint")
		}
	}
}

func BenchmarkHopMatrix(b *testing.B) {
	t := rec.MustGenerate(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.HopMatrixInto(nil)
	}
}

// BenchmarkRingBuild times sim.NewRing on REC designs: one walk of each
// loop fills the source-routing table, O(Σ Len²), and the loop and node
// state comes from a fixed number of backing arrays.
func BenchmarkRingBuild(b *testing.B) {
	for _, n := range []int{8, 10, 16} {
		t := rec.MustGenerate(n)
		b.Run("rec"+strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.NewRing(t, sim.DefaultRingConfig())
			}
		})
	}
}

// BenchmarkMeshBuild times sim.NewMesh for a 10×10 Mesh-2, whose routers
// and per-(port, VC) state come from a fixed number of backing arrays.
func BenchmarkMeshBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.NewMesh(10, 10, sim.MeshN(2))
	}
}

func BenchmarkRECGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec.MustGenerate(10)
	}
}

func BenchmarkTopologyAddLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := topo.NewSquare(8, 0)
		for _, l := range rec.MustGenerate(8).Loops() {
			if err := t.AddLoop(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}
