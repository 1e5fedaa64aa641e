package sim

import (
	"testing"

	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// These tests pin the PR's zero-allocation contract for the simulator hot
// path: once a network has reached steady state, one full cycle —
// injector Tick, packet Inject, network Step — touches the heap zero
// times. Any regression (a new per-cycle make/append, a reintroduced
// container/list, a lost buffer reuse) fails here before it shows up as a
// sweep slowdown. Same methodology as the PR 2 DNN arena tests.

func testZeroAllocCycle(t *testing.T, net Network, src Source) {
	t.Helper()
	// One packet pool shared by warmup and the measured phase, recycled by
	// the network on delivery — the same ownership structure Run sets up.
	pkts := pool[Packet]{}
	net.base().recycle = func(p *Packet) { pkts.put(p) }
	oneCycle := func(id int) {
		for _, r := range src.Tick() {
			p := pkts.get()
			*p = Packet{ID: id, Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Done: -1}
			net.Inject(p)
		}
		net.Step()
	}
	// Generous warmup: pools carve their blocks, queues reach peak
	// occupancy, the pipeline buffer reaches steady capacity.
	for i := 0; i < 3000; i++ {
		oneCycle(i)
	}
	allocs := testing.AllocsPerRun(500, func() { oneCycle(1 << 20) })
	if allocs != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times, want 0", allocs)
	}
}

func TestRingStepZeroAllocSteadyState(t *testing.T) {
	tp := rec.MustGenerate(8)
	net := NewRing(tp, DefaultRingConfig())
	src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.1, 128, 1)
	testZeroAllocCycle(t, net, src)
}

func TestMeshStepZeroAllocSteadyState(t *testing.T) {
	net := NewMesh(8, 8, MeshN(2))
	src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.1, 256, 1)
	testZeroAllocCycle(t, net, src)
}

func TestAppInjectorZeroAllocSteadyState(t *testing.T) {
	prof, err := traffic.ParsecProfile("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	tp := rec.MustGenerate(8)
	net := NewRing(tp, DefaultRingConfig())
	src := traffic.NewAppInjector(prof, 8, 8, 128, 1)
	testZeroAllocCycle(t, net, src)
}

// TestStepZeroAllocWithNilTraceSpan pins the disabled-tracing invariant at
// per-cycle granularity: wrapping every steady-state cycle in a span on a
// nil shard (the state every un-traced run is in — RunConfig.Trace nil)
// must leave the zero-allocation pin untouched. Start/End on a nil shard
// are one pointer check each; if span recording ever grows state that
// escapes to the heap on the disabled path, this fails before any sweep
// slows down.
func TestStepZeroAllocWithNilTraceSpan(t *testing.T) {
	tp := rec.MustGenerate(8)
	net := NewRing(tp, DefaultRingConfig())
	src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.1, 128, 1)
	pkts := pool[Packet]{}
	net.recycle = func(p *Packet) { pkts.put(p) }
	var sh *obs.TraceShard // nil: tracing disabled
	oneCycle := func(id int) {
		sp := sh.Start(obs.SpanSimMeasure)
		for _, r := range src.Tick() {
			p := pkts.get()
			*p = Packet{ID: id, Src: r.Src, Dst: r.Dst, NumFlits: r.NumFlits, Done: -1}
			net.Inject(p)
		}
		net.Step()
		sp.End()
	}
	for i := 0; i < 3000; i++ {
		oneCycle(i)
	}
	allocs := testing.AllocsPerRun(500, func() { oneCycle(1 << 20) })
	if allocs != 0 {
		t.Fatalf("steady-state cycle under a nil trace span allocates %.1f times, want 0", allocs)
	}
}

// The low-rate pins repeat the steady-state contract in the regime the
// active-set work targets: a near-idle network where sparse stepping
// skips almost every loop/router must still run whole cycles — set
// compaction, ejDirty resets, bufCount updates included — without
// touching the heap.

func TestRingSparseLowRateZeroAlloc(t *testing.T) {
	tp := rec.MustGenerate(8)
	net := NewRing(tp, DefaultRingConfig())
	src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.01, 128, 1)
	testZeroAllocCycle(t, net, src)
}

func TestMeshSparseLowRateZeroAlloc(t *testing.T) {
	net := NewMesh(8, 8, MeshN(2))
	src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.01, 256, 1)
	testZeroAllocCycle(t, net, src)
}

// TestRunAllocsConstantPerRun pins the other half of the contract: total
// allocations of a full sim.Run grow with the setup (pool blocks, ledger,
// stats), not with the cycle count. Doubling the measured window must not
// come close to doubling allocations.
func TestRunAllocsConstantPerRun(t *testing.T) {
	tp := rec.MustGenerate(8)
	allocsFor := func(measure int) float64 {
		return testing.AllocsPerRun(3, func() {
			net := NewRing(tp, DefaultRingConfig())
			src := traffic.NewInjector(8, 8, traffic.UniformRandom, 0.1, 128, 1)
			Run(net, src, RunConfig{WarmupCycles: 500, MeasureCycles: measure, DrainCycles: 2 * measure})
		})
	}
	short, long := allocsFor(1000), allocsFor(4000)
	// 4x the cycles should cost well under 2x the allocations; the slack
	// absorbs pool-block carving for the larger in-flight population.
	if long > 2*short {
		t.Fatalf("Run allocations scale with cycles: %0.f @1000 cycles vs %0.f @4000", short, long)
	}
}

// TestNetworkBuildAllocsIndependentOfGrid pins NewRing and NewMesh to a
// fixed number of heap objects: every per-loop, per-node, per-VC and
// routing array is carved from one backing array, so a 16×16 network costs
// as many allocations as a 4×4 one.
func TestNetworkBuildAllocsIndependentOfGrid(t *testing.T) {
	small, large := rec.MustGenerate(4), rec.MustGenerate(16)
	ring := func(tp *topo.Topology) float64 {
		return testing.AllocsPerRun(5, func() { NewRing(tp, DefaultRingConfig()) })
	}
	if a, b := ring(small), ring(large); a != b {
		t.Errorf("NewRing allocates %.0f objects on REC 4x4 and %.0f on 16x16", a, b)
	}
	mesh := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { NewMesh(n, n, MeshN(2)) })
	}
	if a, b := mesh(4), mesh(16); a != b {
		t.Errorf("NewMesh allocates %.0f objects at 4x4 and %.0f at 16x16", a, b)
	}
}

// TestQueueReusesBacking exercises the queue compaction paths directly.
func TestQueueReusesBacking(t *testing.T) {
	var q queue[int]
	// Steady push/pop with backlog must not grow the buffer unboundedly.
	for i := 0; i < 10; i++ {
		q.push(i)
	}
	for i := 0; i < 100000; i++ {
		q.push(i)
		q.pop()
	}
	if cap(q.buf) > 1024 {
		t.Fatalf("queue backing grew to %d with steady backlog 10", cap(q.buf))
	}
	if q.len() != 10 {
		t.Fatalf("len = %d, want 10", q.len())
	}
}

// TestRingBufWrapsAndPanicsOnOverflow drives one FIFO of a slab through
// several wraps and checks that it never writes into its neighbour's
// segment, then that pushing a full FIFO panics.
func TestRingBufWrapsAndPanicsOnOverflow(t *testing.T) {
	back := make([]int, 9)
	bufs := make([]ringBuf[int], 3)
	for i := range bufs {
		bufs[i].buf = segment(back, i, 3)
	}
	r, before, after := &bufs[1], &bufs[0], &bufs[2]
	before.push(-1)
	after.push(-2)
	for round := 0; round < 5; round++ {
		r.push(1)
		r.push(2)
		r.push(3)
		if r.len() != 3 {
			t.Fatalf("len = %d", r.len())
		}
		for want := 1; want <= 3; want++ {
			if got := r.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
		}
	}
	if before.len() != 1 || before.front() != -1 || after.len() != 1 || after.front() != -2 {
		t.Fatalf("neighbouring FIFOs changed: %v", bufs)
	}
	r.push(1)
	r.push(2)
	r.push(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on fixed-FIFO overflow")
		}
	}()
	r.push(4)
}
