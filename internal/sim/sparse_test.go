package sim

import (
	"math/rand"
	"sync"
	"testing"

	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/traffic"
)

// These tests pin the simulator's central invariant: active-set sparse
// stepping is byte-identical to the dense reference walk (dense_test.go).
// A skipped loop or router step must be provably a no-op, so two runs
// differing only in the stepping walk — same topology, same injector seed —
// must produce identical Result structs and identical interval-stat
// streams (the latter includes ActiveLoops/ActiveRouters, where the dense
// side reports ground truth and the sparse side its bookkeeping, so the
// comparison doubles as an occupancy-counter oracle).

// runPair runs the same (network factory, source factory, run config) in
// dense and sparse mode and fails the test on any divergence.
func runPair(t *testing.T, label string, mkNet func(dense bool) Network, mkSrc func() Source, cfg RunConfig) {
	t.Helper()
	var denseIv, sparseIv []IntervalStats
	dcfg := cfg
	dcfg.OnInterval = func(s IntervalStats) { denseIv = append(denseIv, s) }
	if dcfg.ProbeEvery == 0 {
		dcfg.ProbeEvery = 50
	}
	scfg := dcfg
	scfg.OnInterval = func(s IntervalStats) { sparseIv = append(sparseIv, s) }

	dres := Run(mkNet(true), mkSrc(), dcfg)
	sres := Run(mkNet(false), mkSrc(), scfg)

	if dres != sres {
		t.Fatalf("%s: sparse Result diverges from dense\n dense:  %+v\n sparse: %+v", label, dres, sres)
	}
	if len(denseIv) != len(sparseIv) {
		t.Fatalf("%s: interval count %d (dense) vs %d (sparse)", label, len(denseIv), len(sparseIv))
	}
	for i := range denseIv {
		if denseIv[i] != sparseIv[i] {
			t.Fatalf("%s: interval %d diverges\n dense:  %+v\n sparse: %+v", label, i, denseIv[i], sparseIv[i])
		}
	}
	if dres.PacketsSent == 0 {
		t.Fatalf("%s: degenerate trial, no packets sent", label)
	}
}

// TestRingSparseMatchesDenseRandomized sweeps grid sizes, traffic
// patterns, seeds and rates from near-idle to past ring saturation.
func TestRingSparseMatchesDenseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		tp := rec.MustGenerate(n)
		cfg := RingConfig{
			EjectPorts:       1 + rng.Intn(2),
			ExtensionBuffers: 1 + rng.Intn(6),
			InjectPerCycle:   1 + rng.Intn(2),
		}
		pattern := traffic.Patterns[rng.Intn(len(traffic.Patterns))]
		rate := []float64{0.005, 0.02, 0.08, 0.3}[rng.Intn(4)]
		seed := rng.Int63()
		mkNet := func(dense bool) Network { return ringNet(NewRing(tp, cfg), dense) }
		mkSrc := func() Source {
			return traffic.NewInjector(n, n, pattern, rate, 128, seed)
		}
		runPair(t, "ring randomized", mkNet, mkSrc,
			RunConfig{WarmupCycles: 300, MeasureCycles: 1200, DrainCycles: 6000, ProbeEvery: 37})
	}
}

// TestMeshSparseMatchesDenseRandomized is the mesh-side oracle: random VC
// counts, buffer depths, pipeline delays, patterns and rates, including
// past-saturation loads where wormhole backpressure and VC arbitration
// are fully exercised.
func TestMeshSparseMatchesDenseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		cfg := MeshConfig{
			VCs:         1 + rng.Intn(3),
			BufferFlits: 2 + rng.Intn(5),
			RouterDelay: rng.Intn(3),
		}
		pattern := traffic.Patterns[rng.Intn(len(traffic.Patterns))]
		rate := []float64{0.005, 0.02, 0.1, 0.4}[rng.Intn(4)]
		seed := rng.Int63()
		mkNet := func(dense bool) Network {
			return meshNet(NewMesh(n, n, cfg), dense)
		}
		mkSrc := func() Source {
			return traffic.NewInjector(n, n, pattern, rate, 256, seed)
		}
		runPair(t, "mesh randomized", mkNet, mkSrc,
			RunConfig{WarmupCycles: 300, MeasureCycles: 1200, DrainCycles: 8000, ProbeEvery: 41})
	}
}

// TestSparseMatchesDenseHotspot pins the oracle under hotspot traffic,
// where ejection-port contention parks flits in extension buffers (ring)
// and concentrates active routers (mesh).
func TestSparseMatchesDenseHotspot(t *testing.T) {
	tp := rec.MustGenerate(4)
	runPair(t, "ring hotspot",
		func(dense bool) Network { return ringNet(NewRing(tp, DefaultRingConfig()), dense) },
		func() Source { return hotspotSource(4, 0.05, 0.6, 5, 128, 7) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000})
	runPair(t, "mesh hotspot",
		func(dense bool) Network { return meshNet(NewMesh(4, 4, MeshN(2)), dense) },
		func() Source { return hotspotSource(4, 0.05, 0.6, 5, 256, 7) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000})
}

// TestSparseMatchesDenseAppModel pins the oracle under the PARSEC app
// models, whose bursty multi-class traffic is the least uniform source in
// the tree.
func TestSparseMatchesDenseAppModel(t *testing.T) {
	prof, err := traffic.ParsecProfile("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	tp := rec.MustGenerate(4)
	runPair(t, "ring parsec",
		func(dense bool) Network { return ringNet(NewRing(tp, DefaultRingConfig()), dense) },
		func() Source { return traffic.NewAppInjector(prof, 4, 4, 128, 11) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000})
	runPair(t, "mesh parsec",
		func(dense bool) Network { return meshNet(NewMesh(4, 4, MeshN(1)), dense) },
		func() Source { return traffic.NewAppInjector(prof, 4, 4, 256, 11) },
		RunConfig{WarmupCycles: 300, MeasureCycles: 1500, DrainCycles: 8000})
}

// TestRingSparseMatchesDenseManual drives dense and sparse rings cycle by
// cycle with identical injections, checking every per-packet outcome and
// every counter — a finer-grained comparison than Run's aggregates.
func TestRingSparseMatchesDenseManual(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 6; trial++ {
		n := 4
		tp := rec.MustGenerate(n)
		dnet := denseRing{NewRing(tp, DefaultRingConfig())}
		snet := NewRing(tp, DefaultRingConfig())
		src := traffic.NewInjector(n, n, traffic.UniformRandom, 0.08, 128, rng.Int63())
		var dpkts, spkts []*Packet
		for cyc := 0; cyc < 800; cyc++ {
			for _, r := range src.Tick() {
				dp := &Packet{Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Injected: dnet.Cycle(), Done: -1}
				sp := &Packet{Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Injected: snet.Cycle(), Done: -1}
				dnet.Inject(dp)
				snet.Inject(sp)
				dpkts = append(dpkts, dp)
				spkts = append(spkts, sp)
			}
			dnet.Step()
			snet.Step()
			if da, sa := gauges(dnet).ActiveLoops, gauges(snet).ActiveLoops; da != sa {
				t.Fatalf("trial %d cycle %d: ActiveLoops dense %d sparse %d", trial, cyc, da, sa)
			}
		}
		for i := range dpkts {
			if dpkts[i].Done != spkts[i].Done || dpkts[i].Hops != spkts[i].Hops {
				t.Fatalf("trial %d packet %d: dense done=%d hops=%d, sparse done=%d hops=%d",
					trial, i, dpkts[i].Done, dpkts[i].Hops, spkts[i].Done, spkts[i].Hops)
			}
		}
		if dnet.injectedFlits != snet.injectedFlits ||
			dnet.DeliveredFlits() != snet.DeliveredFlits() ||
			dnet.InFlight() != snet.InFlight() ||
			gauges(dnet).BufferOccupancy != gauges(snet).BufferOccupancy ||
			dnet.LinkUtilization() != snet.LinkUtilization() {
			t.Fatalf("trial %d: counters diverge: dense inj=%d del=%d inflight=%d buf=%d util=%v, sparse inj=%d del=%d inflight=%d buf=%d util=%v",
				trial,
				dnet.injectedFlits, dnet.DeliveredFlits(), dnet.InFlight(), gauges(dnet).BufferOccupancy, dnet.LinkUtilization(),
				snet.injectedFlits, snet.DeliveredFlits(), snet.InFlight(), gauges(snet).BufferOccupancy, snet.LinkUtilization())
		}
	}
}

// stepWatch records the network's in-flight packet count after every
// Step Run makes.
type stepWatch struct {
	Network
	inFlight []int
}

func (w *stepWatch) Step() {
	w.Network.Step()
	w.inFlight = append(w.inFlight, w.Network.InFlight())
}

// TestDrainStopsOnLastMeasuredDelivery pins the drain's stop condition:
// the run stops stepping on the first drain cycle that finds no measured
// packet in flight, or after DrainCycles when packets are still in flight
// there (the heavy-load case, whose two-cycle bound always runs out).
// With no warmup every packet is measured, so the network's own InFlight
// count after each Step is the measured packets still in flight, and the
// watch sees exactly where the drain should have stopped.
func TestDrainStopsOnLastMeasuredDelivery(t *testing.T) {
	tp := rec.MustGenerate(4)
	const measure = 1000
	for _, tc := range []struct {
		rate       float64
		drainBound int
		saturated  bool
	}{{0.1, 3000, false}, {0.4, 2, true}} {
		for _, mk := range []func() Network{
			func() Network { return NewRing(tp, DefaultRingConfig()) },
			func() Network { return denseRing{NewRing(tp, DefaultRingConfig())} },
			func() Network { return NewMesh(4, 4, MeshN(2)) },
		} {
			w := &stepWatch{Network: mk()}
			src := traffic.NewInjector(4, 4, traffic.UniformRandom, tc.rate, 128, 3)
			res := Run(w, src, RunConfig{MeasureCycles: measure, DrainCycles: tc.drainBound})
			if res.Saturated != tc.saturated {
				t.Fatalf("rate %v %T: Saturated = %v, want %v", tc.rate, w.Network, res.Saturated, tc.saturated)
			}
			// Every drain Step follows one that left packets in flight, and
			// the drain ends on the first that left none or at the bound.
			ran := len(w.inFlight) - measure
			for i := measure; i < len(w.inFlight); i++ {
				if w.inFlight[i-1] == 0 {
					t.Fatalf("rate %v %T: drain cycle %d ran with nothing in flight", tc.rate, w.Network, i-measure)
				}
			}
			if left := w.inFlight[len(w.inFlight)-1]; left > 0 && ran < tc.drainBound {
				t.Fatalf("rate %v %T: drain stopped after %d cycles with %d packets in flight", tc.rate, w.Network, ran, left)
			}
			if ran == 0 {
				t.Fatalf("rate %v %T: no packet left in flight for the drain", tc.rate, w.Network)
			}
			if tc.saturated != (ran == tc.drainBound) {
				t.Fatalf("rate %v %T: drain ran %d of %d cycles", tc.rate, w.Network, ran, tc.drainBound)
			}
		}
	}
}

// TestActiveGaugesInIntervalStats checks the observability satellite: a
// ring run reports ActiveLoops (and no ActiveRouters), a mesh run the
// reverse, and the sparse counts stay within [0, topology size].
func TestActiveGaugesInIntervalStats(t *testing.T) {
	tp := rec.MustGenerate(4)
	var ringIv, meshIv []IntervalStats
	Run(NewRing(tp, DefaultRingConfig()),
		traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 128, 5),
		RunConfig{WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 3000,
			ProbeEvery: 50, OnInterval: func(s IntervalStats) { ringIv = append(ringIv, s) }})
	Run(NewMesh(4, 4, MeshN(2)),
		traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 256, 5),
		RunConfig{WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 3000,
			ProbeEvery: 50, OnInterval: func(s IntervalStats) { meshIv = append(meshIv, s) }})
	if len(ringIv) == 0 || len(meshIv) == 0 {
		t.Fatal("no interval samples captured")
	}
	sawRingActive, sawMeshActive := false, false
	for _, s := range ringIv {
		if s.ActiveRouters != -1 {
			t.Fatalf("ring interval reports ActiveRouters=%d, want -1", s.ActiveRouters)
		}
		if s.ActiveLoops < 0 || s.ActiveLoops > len(tp.Loops()) {
			t.Fatalf("ring ActiveLoops=%d out of range [0,%d]", s.ActiveLoops, len(tp.Loops()))
		}
		if s.ActiveLoops > 0 {
			sawRingActive = true
		}
	}
	for _, s := range meshIv {
		if s.ActiveLoops != -1 {
			t.Fatalf("mesh interval reports ActiveLoops=%d, want -1", s.ActiveLoops)
		}
		if s.ActiveRouters < 0 || s.ActiveRouters > 16 {
			t.Fatalf("mesh ActiveRouters=%d out of range [0,16]", s.ActiveRouters)
		}
		if s.ActiveRouters > 0 {
			sawMeshActive = true
		}
	}
	if !sawRingActive || !sawMeshActive {
		t.Fatalf("gauges never went positive under load (ring %v, mesh %v)", sawRingActive, sawMeshActive)
	}
}

// TestParallelSparseMatchesDenseUnderRace runs a concurrent sweep where
// every point simulates the same workload twice — active-set sparse
// stepping and the dense reference — on worker goroutines sharing one
// metrics registry. `make race` covers this package, so the test both pins
// the dense-vs-sparse oracle at sweep granularity and proves the sparse
// bookkeeping introduces no cross-worker sharing.
func TestParallelSparseMatchesDenseUnderRace(t *testing.T) {
	const points, workers = 16, 8
	reg := obs.NewRegistry()
	tp := rec.MustGenerate(4)
	type pair struct{ sparse, dense Result }
	res := make([]pair, points)
	next := make(chan int, points)
	for i := 0; i < points; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rate := 0.01 + 0.02*float64(i%4)
				seed := int64(100 + i)
				cfg := RunConfig{WarmupCycles: 200, MeasureCycles: 800, DrainCycles: 4000, Metrics: reg}
				runOne := func(dense bool) Result {
					src := traffic.NewInjector(4, 4, traffic.UniformRandom, rate, 128, seed)
					return Run(ringNet(NewRing(tp, DefaultRingConfig()), dense), src, cfg)
				}
				res[i] = pair{sparse: runOne(false), dense: runOne(true)}
			}
		}()
	}
	wg.Wait()
	for i, p := range res {
		if p.sparse != p.dense {
			t.Fatalf("point %d: sparse diverges from dense\n sparse: %+v\n dense:  %+v", i, p.sparse, p.dense)
		}
		if p.sparse.PacketsDone == 0 {
			t.Fatalf("point %d delivered nothing", i)
		}
	}
}
