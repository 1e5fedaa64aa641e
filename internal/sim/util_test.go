package sim

import (
	"math/rand"
	"testing"

	"routerless/internal/rec"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// REC/DRL designs keep most traffic flowing after a single loop failure —
// the §6.7 claim that path diversity provides fault tolerance. A failed
// link disables its whole loop, so the degraded network is the design
// without that loop; traffic between the pairs it still connects flows.
func TestSingleLoopFailureMostlySurvives(t *testing.T) {
	tp := rec.MustGenerate(6).Clone()
	tp.RemoveLoop(3)
	total := tp.N() * (tp.N() - 1)
	if lost := len(tp.UnconnectedPairs(0)); float64(total-lost) < 0.9*float64(total) {
		t.Fatalf("only %d/%d pairs survive one loop failure", total-lost, total)
	}
	r := NewRing(tp, DefaultRingConfig())
	src := traffic.NewInjector(6, 6, traffic.UniformRandom, 0.02, 128, 5)
	delivered := 0
	for i := 0; i < 2000; i++ {
		for _, req := range src.Tick() {
			if tp.Dist(topo.NodeFromID(req.Src, 6), topo.NodeFromID(req.Dst, 6)) < 0 {
				continue
			}
			r.Inject(&Packet{Src: req.Src, Dst: req.Dst, NumFlits: req.NumFlits, Done: -1})
			delivered++
		}
		r.Step()
	}
	for i := 0; i < 2000 && r.InFlight() > 0; i++ {
		r.Step()
	}
	if delivered == 0 || r.InFlight() != 0 {
		t.Fatalf("degraded network stalled: delivered=%d inflight=%d", delivered, r.InFlight())
	}
}

// TestLoopUtilizationBounds checks the ring's loop-slot utilization
// (LinkUtilization: occupied slots over slot-cycles, summed over loops)
// stays a fraction and is positive under load.
func TestLoopUtilizationBounds(t *testing.T) {
	tp := rec.MustGenerate(4)
	r := NewRing(tp, DefaultRingConfig())
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.3, 128, 6)
	for i := 0; i < 2000; i++ {
		for _, req := range src.Tick() {
			r.Inject(&Packet{Src: req.Src, Dst: req.Dst, NumFlits: req.NumFlits, Done: -1})
		}
		r.Step()
	}
	if u := r.LinkUtilization(); u <= 0 || u > 1 {
		t.Fatalf("loop utilization %v at 0.3 flits/node/cycle, want in (0, 1]", u)
	}
}

func TestLoopUtilizationIdleNetwork(t *testing.T) {
	r := NewRing(rec.MustGenerate(4), DefaultRingConfig())
	for i := 0; i < 100; i++ {
		r.Step()
	}
	if u := r.LinkUtilization(); u != 0 {
		t.Fatalf("idle loop utilization %v", u)
	}
}

// TestOnDeliverObservesEveryPacket checks the ring's delivery hook (the
// recycle callback Run installs for its packet pool and drain counter)
// fires exactly once per packet, after the packet has completed.
func TestOnDeliverObservesEveryPacket(t *testing.T) {
	r := NewRing(rec.MustGenerate(4), DefaultRingConfig())
	seen := 0
	r.recycle = func(p *Packet) {
		if p.Done < 0 || p.Hops < 1 {
			t.Errorf("hook saw incomplete packet %+v", p)
		}
		seen++
	}
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 128, 12)
	sent := 0
	for i := 0; i < 1000; i++ {
		for _, req := range src.Tick() {
			r.Inject(&Packet{Src: req.Src, Dst: req.Dst, NumFlits: req.NumFlits, Injected: r.Cycle(), Done: -1})
			sent++
		}
		r.Step()
	}
	for i := 0; i < 4000 && r.InFlight() > 0; i++ {
		r.Step()
	}
	if sent == 0 || seen != sent {
		t.Fatalf("hook saw %d of %d packets", seen, sent)
	}
}

func TestHotspotTrafficStressesEjection(t *testing.T) {
	tp := rec.MustGenerate(4)
	r := NewRing(tp, RingConfig{EjectPorts: 1, ExtensionBuffers: 2, InjectPerCycle: 1})
	src := hotspotSource(4, 0.4, 0.9, 5, 128, 8)
	res := Run(r, src, RunConfig{WarmupCycles: 200, MeasureCycles: 2000, DrainCycles: 6000})
	if res.PacketsDone == 0 {
		t.Fatal("hotspot run delivered nothing")
	}
}

func TestFlitCountersConsistent(t *testing.T) {
	tp := rec.MustGenerate(4)
	r := NewRing(tp, DefaultRingConfig())
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.05, 128, 14)
	Run(r, src, RunConfig{WarmupCycles: 100, MeasureCycles: 1000, DrainCycles: 4000})
	if r.DeliveredFlits() != r.injectedFlits {
		t.Fatalf("injected %d flits, delivered %d after drain",
			r.injectedFlits, r.DeliveredFlits())
	}
}

func TestNeighborTrafficLowLatency(t *testing.T) {
	tp := rec.MustGenerate(4)
	near := NewRing(tp, DefaultRingConfig())
	res := Run(near, neighborSource(4, 0.1, 128, 3),
		RunConfig{WarmupCycles: 200, MeasureCycles: 2000, DrainCycles: 4000})
	far := NewRing(tp, DefaultRingConfig())
	resFar := Run(far, traffic.NewInjector(4, 4, traffic.BitComplement, 0.1, 128, 3),
		RunConfig{WarmupCycles: 200, MeasureCycles: 2000, DrainCycles: 4000})
	if res.AvgLatency >= resFar.AvgLatency {
		t.Fatalf("neighbor latency %.2f not below bit-complement %.2f",
			res.AvgLatency, resFar.AvgLatency)
	}
}

// pickSource is a test traffic source on an n×n grid: every cycle each
// node sends a control or a data packet (even odds) with the probability
// that offers rate flits/node/cycle, to the destination pick draws.
// Packets pick maps back to their source are skipped.
type pickSource struct {
	n, linkBits int
	rate        float64
	pick        func(rng *rand.Rand, src int) int
	rng         *rand.Rand
	buf         []traffic.Request
}

// Tick implements Source.
func (s *pickSource) Tick() []traffic.Request {
	fc, fd := traffic.Flits(traffic.Control, s.linkBits), traffic.Flits(traffic.Data, s.linkBits)
	p := s.rate / (0.5*float64(fc) + 0.5*float64(fd))
	out := s.buf[:0]
	for src := 0; src < s.n*s.n; src++ {
		if s.rng.Float64() >= p {
			continue
		}
		dst := s.pick(s.rng, src)
		if dst == src {
			continue
		}
		class := traffic.Control
		if s.rng.Float64() < 0.5 {
			class = traffic.Data
		}
		out = append(out, traffic.Request{Src: src, Dst: dst, Class: class, NumFlits: traffic.Flits(class, s.linkBits)})
	}
	s.buf = out
	return out
}

// hotspotSource sends a packet to node hot with probability hotFrac and
// to a uniform destination otherwise, concentrating ejection contention.
func hotspotSource(n int, rate, hotFrac float64, hot, linkBits int, seed int64) Source {
	return &pickSource{n: n, linkBits: linkBits, rate: rate, rng: rand.New(rand.NewSource(seed)),
		pick: func(rng *rand.Rand, src int) int {
			if rng.Float64() < hotFrac {
				return hot
			}
			return rng.Intn(n * n)
		}}
}

// neighborSource sends each packet to a uniformly chosen grid neighbor of
// its source, the best case for low-diameter networks.
func neighborSource(n int, rate float64, linkBits int, seed int64) Source {
	return &pickSource{n: n, linkBits: linkBits, rate: rate, rng: rand.New(rand.NewSource(seed)),
		pick: func(rng *rand.Rand, src int) int {
			var nbs [4]int
			k := 0
			for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
				if r, c := src/n+d[0], src%n+d[1]; r >= 0 && r < n && c >= 0 && c < n {
					nbs[k] = r*n + c
					k++
				}
			}
			return nbs[rng.Intn(k)]
		}}
}
