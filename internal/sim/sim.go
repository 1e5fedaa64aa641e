// Package sim is the cycle-accurate NoC simulator used for all
// performance evaluation, standing in for Gem5/Garnet2.0 (see DESIGN.md).
//
// Two network models are provided:
//
//   - Ring: routerless ring interfaces (REC/DRL/IMR topologies) with
//     single-cycle per-hop forwarding, per-loop flit-sized buffers,
//     shared extension buffers and source routing via loop-selection
//     tables;
//   - Mesh: input-buffered virtual-channel wormhole routers with XY
//     routing, credit flow control and a configurable router pipeline
//     depth (2, 1, or 0 cycles, the paper's Mesh-2/Mesh-1/Mesh-0).
//
// Both satisfy the Network interface and share its packet accounting
// (fabric); Run injects traffic into either, advances cycles, and collects
// statistics.
package sim

import (
	"fmt"

	"routerless/internal/obs"
	"routerless/internal/stats"
	"routerless/internal/traffic"
)

// Packet is an in-flight packet; flits reference their parent packet.
type Packet struct {
	ID       int
	Src, Dst int
	Class    traffic.PacketClass
	NumFlits int
	// Injected is the cycle the packet entered the source queue;
	// Done is the cycle its last flit was ejected (-1 while in flight).
	Injected int
	Done     int
	// Hops records the path length experienced by the head flit.
	Hops int
	// remaining counts flits not yet ejected.
	remaining int
	// measured marks packets injected during the measurement window; the
	// run freelist reclaims unmeasured (warmup) packets on delivery.
	measured bool
}

// Network is a cycle-accurate NoC model. The contract is closed: its
// unexported methods let only this package's models, Ring and Mesh,
// satisfy it, so Run relies on their shared accounting without probing.
type Network interface {
	// Nodes returns the number of network endpoints.
	Nodes() int
	// Inject queues a packet at its source NI at the current cycle.
	Inject(p *Packet)
	// Step advances the network by one cycle.
	Step()
	// fillStats sets the model-specific gauges of an interval sample:
	// BufferOccupancy and the model's active-set size (ActiveLoops for
	// the ring, ActiveRouters for the mesh).
	fillStats(s *IntervalStats)

	accounting
}

// accounting is the part of Network every model gets from its embedded
// fabric.
type accounting interface {
	// Cycle returns the current cycle number.
	Cycle() int
	// InFlight returns the number of packets injected but not delivered.
	InFlight() int
	// LinkUtilization returns the mean fraction of link slots occupied
	// since construction (for the dynamic-power model).
	LinkUtilization() float64
	// base returns the model's fabric.
	base() *fabric
}

// fabric is the packet accounting every network model shares: the cycle
// clock, the packets in flight, the flit and link-slot counters and the
// delivery hook Run installs. Ring and Mesh embed it.
type fabric struct {
	cycle    int
	inFlight int

	injectedFlits  int64
	deliveredFlits int64

	// linkBusy and linkSamples sum, over every cycle, the occupied link
	// slots and the slots sampled; each model defines its slots.
	linkBusy, linkSamples int64

	// recycle, when set, observes every completed packet (Run's packet
	// freelist and drain counter).
	recycle func(*Packet)
}

func (f *fabric) base() *fabric { return f }

func (f *fabric) Cycle() int { return f.cycle }

func (f *fabric) InFlight() int { return f.inFlight }

func (f *fabric) LinkUtilization() float64 {
	if f.linkSamples == 0 {
		return 0
	}
	return float64(f.linkBusy) / float64(f.linkSamples)
}

// DeliveredFlits returns the number of flits ejected at destinations.
func (f *fabric) DeliveredFlits() int64 { return f.deliveredFlits }

// admit starts accounting for a packet entering its source queue.
func (f *fabric) admit(p *Packet) {
	p.remaining = p.NumFlits
	f.inFlight++
}

// deliver retires one flit of p that reached its destination after hops
// hops, completing the packet with its last flit.
func (f *fabric) deliver(p *Packet, hops int) {
	p.remaining--
	f.deliveredFlits++
	p.Hops = max(p.Hops, hops)
	if p.remaining == 0 {
		p.Done = f.cycle
		f.inFlight--
		if f.recycle != nil {
			f.recycle(p)
		}
	}
}

// Result aggregates a simulation run's measurements. The latency
// percentiles are derived from a log-scaled histogram of per-packet
// latencies (relative error ≤ ~3%), not from a sorted sample slice.
type Result struct {
	Cycles          int
	PacketsSent     int
	PacketsDone     int
	FlitsDone       int
	AvgLatency      float64 // cycles, injection -> tail ejection
	AvgHops         float64
	Throughput      float64 // accepted flits/node/cycle
	LinkUtilization float64
	LatencyP50      float64
	LatencyP95      float64
	LatencyP99      float64
	Saturated       bool
}

func (r Result) String() string {
	s := fmt.Sprintf("cycles=%d sent=%d done=%d lat=%.2f p50=%.2f p95=%.2f p99=%.2f hops=%.2f thr=%.4f util=%.3f",
		r.Cycles, r.PacketsSent, r.PacketsDone, r.AvgLatency, r.LatencyP50, r.LatencyP95, r.LatencyP99, r.AvgHops, r.Throughput, r.LinkUtilization)
	if r.Saturated {
		s += " SATURATED"
	}
	return s
}

// Source produces injection requests per cycle; both traffic.Injector and
// traffic.AppInjector satisfy it.
type Source interface {
	Tick() []traffic.Request
}

// RunConfig controls a measurement run.
type RunConfig struct {
	// WarmupCycles are simulated before measurement starts.
	WarmupCycles int
	// MeasureCycles is the measured window (injection continues).
	MeasureCycles int
	// DrainCycles bounds the post-measurement drain phase; measurement
	// packets still in flight after the bound are abandoned (the run is
	// then flagged Saturated).
	DrainCycles int

	// Metrics, when non-nil, receives run telemetry: the packet latency
	// histogram (sim.latency_cycles), injected/ejected flit counters, and
	// in-flight / buffer-occupancy / interval-throughput gauges.
	Metrics *obs.Registry
	// ProbeEvery is the cycle interval between telemetry samples in the
	// measurement and drain phases. Zero picks MeasureCycles/20 when
	// Metrics or OnInterval is set, and disables interval probes
	// otherwise. The probe costs one branch per cycle when idle.
	ProbeEvery int
	// OnInterval, when set, observes every probe sample (e.g. to print
	// progress lines to stderr).
	OnInterval func(IntervalStats)

	// Trace, when non-nil, records phase spans (sim.run wrapping
	// sim.warmup / sim.measure / sim.drain) on the given shard. The shard
	// must be owned by the goroutine calling Run. Nil tracing costs one
	// nil check per phase, not per cycle.
	Trace *obs.TraceShard
}

// DefaultRunConfig mirrors the paper's synthetic methodology scaled for
// test budgets: statistics over a fixed window after warm-up.
func DefaultRunConfig() RunConfig {
	return RunConfig{WarmupCycles: 2000, MeasureCycles: 10000, DrainCycles: 20000}
}

// Run drives src over net per cfg and returns measurements for packets
// injected during the measurement window.
//
// Run owns a packet freelist for the duration of the run: warmup packets
// are reclaimed as they deliver (through the network's recycle hook) and
// reused for measurement traffic, so the steady-state injection path
// performs no heap allocation. Measured packets are held until statistics
// are computed and released with the run.
func Run(net Network, src Source, cfg RunConfig) Result {
	probe := newRunProbe(net, cfg)

	// One pool per run, one network per run. The hook fires for every
	// completed packet, so it doubles as the drain phase's O(1) stop
	// condition: measuredLeft counts measured packets not yet delivered.
	fab := net.base()
	pkts := pool[Packet]{}
	measuredLeft := 0
	prev := fab.recycle
	fab.recycle = func(p *Packet) {
		if p.measured {
			measuredLeft--
		} else {
			pkts.put(p)
		}
	}
	defer func() { fab.recycle = prev }()

	var measured []*Packet
	nextID := 0
	// inject queues this cycle's requests; measured packets join the
	// ledger and the drain count, warmup packets return to the pool.
	inject := func(measuring bool) {
		for _, r := range src.Tick() {
			p := pkts.get()
			*p = Packet{
				ID:  nextID,
				Src: r.Src, Dst: r.Dst,
				Class:    r.Class,
				NumFlits: r.NumFlits,
				Injected: fab.cycle,
				Done:     -1,
				measured: measuring,
			}
			nextID++
			net.Inject(p)
			if measuring {
				measured = append(measured, p)
				measuredLeft++
			}
		}
	}

	run := cfg.Trace.Start(obs.SpanSimRun)
	defer run.End()

	warm := cfg.Trace.Start(obs.SpanSimWarmup)
	for i := 0; i < cfg.WarmupCycles; i++ {
		inject(false)
		net.Step()
	}
	warm.End()

	// Size the measurement ledger from the warmup injection rate so
	// appends stay within capacity in steady state.
	expected := 64
	if cfg.WarmupCycles > 0 {
		expected += nextID * cfg.MeasureCycles / cfg.WarmupCycles
		expected += expected / 8
	}
	measured = make([]*Packet, 0, expected)
	meas := cfg.Trace.Start(obs.SpanSimMeasure)
	for i := 0; i < cfg.MeasureCycles; i++ {
		inject(true)
		net.Step()
		probe.tick("measure")
	}
	meas.End()
	// Drain: no further injection, until the last measured packet
	// delivers or the bound runs out.
	drain := cfg.Trace.Start(obs.SpanSimDrain)
	for i := 0; i < cfg.DrainCycles && measuredLeft > 0; i++ {
		net.Step()
		probe.tick("drain")
	}
	drain.End()

	// One pass over the ledger: running sums for the means (same
	// accumulation order the old sample slices produced) and a run-local
	// log-scaled histogram for the percentiles.
	res := Result{PacketsSent: len(measured)}
	latHist := obs.NewHistogram()
	var latSum, hopSum float64
	for _, p := range measured {
		if p.Done < 0 {
			res.Saturated = true
			continue
		}
		res.PacketsDone++
		res.FlitsDone += p.NumFlits
		l := float64(p.Done - p.Injected)
		latSum += l
		hopSum += float64(p.Hops)
		latHist.Observe(l)
	}
	res.Cycles = cfg.MeasureCycles
	if res.PacketsDone > 0 {
		res.AvgLatency = latSum / float64(res.PacketsDone)
		res.AvgHops = hopSum / float64(res.PacketsDone)
		hs := latHist.SnapshotHist()
		res.LatencyP50 = hs.Quantile(0.50)
		res.LatencyP95 = hs.Quantile(0.95)
		res.LatencyP99 = hs.Quantile(0.99)
	}
	res.Throughput = float64(res.FlitsDone) / float64(cfg.MeasureCycles) / float64(net.Nodes())
	res.LinkUtilization = net.LinkUtilization()
	probe.finish(res, latHist)
	return res
}

// IntervalStats is one periodic telemetry sample of a running simulation.
type IntervalStats struct {
	// Cycle is the network cycle at the sample; Phase is "measure" or
	// "drain".
	Cycle int
	Phase string
	// InjectedFlits/EjectedFlits are deltas over the interval.
	InjectedFlits, EjectedFlits int64
	// InFlight is the number of packets injected but not delivered.
	InFlight int
	// BufferOccupancy counts flits parked in extension buffers (ring) or
	// input-VC FIFOs (mesh); -1 when the network does not report it.
	BufferOccupancy int
	// ActiveLoops/ActiveRouters count the units a sparse cycle actually
	// steps (occupied loops for the ring, busy routers for the mesh); -1
	// when the network does not report the gauge.
	ActiveLoops, ActiveRouters int
	// Throughput is the accepted flits/node/cycle over the interval.
	Throughput float64
}

// gauges returns net's model-specific gauges (see Network.fillStats),
// with -1 in every gauge the model does not report.
func gauges(net Network) IntervalStats {
	s := IntervalStats{BufferOccupancy: -1, ActiveLoops: -1, ActiveRouters: -1}
	net.fillStats(&s)
	return s
}

// runProbe samples the network every ProbeEvery cycles and fans the sample
// out to the metrics registry, the event logger, and the OnInterval
// callback. A nil probe (telemetry disabled) costs one branch per cycle.
type runProbe struct {
	net   Network
	cfg   RunConfig
	every int
	since int // cycles since the last sample

	lastInj, lastEject int64

	injected, ejected    *obs.Counter
	inFlight, bufOcc     *obs.Gauge
	actLoops, actRouters *obs.Gauge
	intervalThr          *obs.Gauge
	intervalThrHist      *obs.Histogram
	latency              *obs.Histogram
}

func newRunProbe(net Network, cfg RunConfig) *runProbe {
	if cfg.Metrics == nil && cfg.OnInterval == nil {
		return nil
	}
	every := cfg.ProbeEvery
	if every <= 0 {
		every = cfg.MeasureCycles / 20
		if every < 1 {
			every = 1
		}
	}
	fab := net.base()
	p := &runProbe{net: net, cfg: cfg, every: every,
		lastInj: fab.injectedFlits, lastEject: fab.deliveredFlits}
	reg := cfg.Metrics
	p.injected = reg.Counter("sim.flits_injected")
	p.ejected = reg.Counter("sim.flits_ejected")
	p.inFlight = reg.Gauge("sim.inflight_packets")
	p.bufOcc = reg.Gauge("sim.buffer_occupancy")
	// Register only the active-set gauge the network reports, so ring
	// snapshots don't carry a dead mesh gauge and vice versa (Set on a
	// nil gauge is a no-op).
	g := gauges(net)
	if g.ActiveLoops >= 0 {
		p.actLoops = reg.Gauge("sim.active_loops")
	}
	if g.ActiveRouters >= 0 {
		p.actRouters = reg.Gauge("sim.active_routers")
	}
	p.intervalThr = reg.Gauge("sim.interval_throughput")
	p.intervalThrHist = reg.Histogram("sim.interval_throughput_hist")
	p.latency = reg.Histogram("sim.latency_cycles")
	return p
}

// tick advances the probe by one cycle and samples when the interval
// elapses.
func (p *runProbe) tick(phase string) {
	if p == nil {
		return
	}
	p.since++
	if p.since < p.every {
		return
	}
	p.since = 0

	fab := p.net.base()
	s := gauges(p.net)
	s.Cycle, s.Phase, s.InFlight = fab.cycle, phase, fab.inFlight
	inj, eject := fab.injectedFlits, fab.deliveredFlits
	s.InjectedFlits, s.EjectedFlits = inj-p.lastInj, eject-p.lastEject
	p.lastInj, p.lastEject = inj, eject
	s.Throughput = float64(s.EjectedFlits) / float64(p.every) / float64(p.net.Nodes())

	p.injected.Add(s.InjectedFlits)
	p.ejected.Add(s.EjectedFlits)
	p.inFlight.Set(float64(s.InFlight))
	if s.BufferOccupancy >= 0 {
		p.bufOcc.Set(float64(s.BufferOccupancy))
	}
	if s.ActiveLoops >= 0 {
		p.actLoops.Set(float64(s.ActiveLoops))
	}
	if s.ActiveRouters >= 0 {
		p.actRouters.Set(float64(s.ActiveRouters))
	}
	p.intervalThr.Set(s.Throughput)
	p.intervalThrHist.Observe(s.Throughput)

	if p.cfg.OnInterval != nil {
		p.cfg.OnInterval(s)
	}
}

// finish records the end-of-run measurements.
// The run-local latency histogram is merged into the registry's in one
// bucket-wise pass instead of re-observing every packet.
func (p *runProbe) finish(res Result, latHist *obs.Histogram) {
	if p == nil {
		return
	}
	p.latency.Merge(latHist)
	reg := p.cfg.Metrics
	reg.Counter("sim.packets_sent").Add(int64(res.PacketsSent))
	reg.Counter("sim.packets_done").Add(int64(res.PacketsDone))
	reg.Counter("sim.flits_done").Add(int64(res.FlitsDone))
}

// SweepPoint couples an injection rate with its Result.
type SweepPoint struct {
	Rate   float64
	Result Result
}

// Curve converts sweep points into a stats load-latency curve.
func Curve(points []SweepPoint) []stats.CurvePoint {
	out := make([]stats.CurvePoint, len(points))
	for i, p := range points {
		out[i] = stats.CurvePoint{
			InjectionRate: p.Rate,
			Latency:       p.Result.AvgLatency,
			Throughput:    p.Result.Throughput,
		}
	}
	return out
}
