package sim

import (
	"strings"
	"testing"

	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/traffic"
)

// runInstrumented drives a small REC ring with full telemetry enabled.
func runInstrumented(t *testing.T, reg *obs.Registry, onInterval func(IntervalStats)) Result {
	t.Helper()
	topo := rec.MustGenerate(4)
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.02, 128, 1)
	cfg := RunConfig{
		WarmupCycles: 100, MeasureCycles: 400, DrainCycles: 800,
		Metrics: reg, ProbeEvery: 50, OnInterval: onInterval,
	}
	return Run(NewRing(topo, DefaultRingConfig()), src, cfg)
}

func TestRunPopulatesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	res := runInstrumented(t, reg, nil)
	if res.PacketsDone == 0 {
		t.Fatal("no packets delivered")
	}
	s := reg.Snapshot()
	lat := s.Histograms["sim.latency_cycles"]
	if lat.Count != int64(res.PacketsDone) {
		t.Fatalf("latency histogram count = %d, want %d", lat.Count, res.PacketsDone)
	}
	if len(lat.Buckets) == 0 {
		t.Fatal("latency histogram has no buckets")
	}
	if s.Counters["sim.packets_sent"] != int64(res.PacketsSent) {
		t.Fatalf("packets_sent = %d, want %d", s.Counters["sim.packets_sent"], res.PacketsSent)
	}
	if s.Counters["sim.flits_ejected"] == 0 {
		t.Fatal("no ejected flits counted")
	}
	if s.Histograms["sim.interval_throughput_hist"].Count == 0 {
		t.Fatal("no interval throughput samples")
	}
	if _, ok := s.Gauges["sim.buffer_occupancy"]; !ok {
		t.Fatal("ring buffer occupancy gauge missing")
	}
}

// TestRunReportsIntervals checks that every probe sample reaches both
// OnInterval and the registry's interval-throughput histogram.
func TestRunReportsIntervals(t *testing.T) {
	reg := obs.NewRegistry()
	var intervals []IntervalStats
	runInstrumented(t, reg, func(s IntervalStats) {
		intervals = append(intervals, s)
	})
	if len(intervals) < 400/50 {
		t.Fatalf("got %d interval callbacks, want >= %d", len(intervals), 400/50)
	}
	for _, s := range intervals {
		if s.Phase != "measure" && s.Phase != "drain" {
			t.Fatalf("bad phase %q", s.Phase)
		}
		if s.BufferOccupancy < 0 {
			t.Fatal("ring must report buffer occupancy")
		}
	}
	if got := reg.Snapshot().Histograms["sim.interval_throughput_hist"].Count; got != int64(len(intervals)) {
		t.Fatalf("interval throughput samples = %d, callbacks = %d", got, len(intervals))
	}
}

func TestMeshReportsProbes(t *testing.T) {
	m := NewMesh(4, 4, MeshN(1))
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.02, 256, 1)
	reg := obs.NewRegistry()
	res := Run(m, src, RunConfig{
		WarmupCycles: 100, MeasureCycles: 400, DrainCycles: 800,
		Metrics: reg, ProbeEvery: 50,
	})
	if res.PacketsDone == 0 {
		t.Fatal("no packets delivered")
	}
	if m.injectedFlits == 0 || m.DeliveredFlits() == 0 {
		t.Fatal("mesh flit counters did not advance")
	}
	if gauges(m).BufferOccupancy < 0 {
		t.Fatal("negative buffer occupancy")
	}
	if reg.Snapshot().Counters["sim.flits_ejected"] == 0 {
		t.Fatal("mesh ejected flits not counted")
	}
}

func TestRunRecordsPhaseSpans(t *testing.T) {
	tr := obs.NewTracer(256)
	topo := rec.MustGenerate(4)
	src := traffic.NewInjector(4, 4, traffic.UniformRandom, 0.02, 128, 1)
	Run(NewRing(topo, DefaultRingConfig()), src, RunConfig{
		WarmupCycles: 50, MeasureCycles: 200, DrainCycles: 400,
		Trace: tr.Shard("sim.test"),
	})
	byKind := map[string]obs.SpanStat{}
	for _, s := range tr.Aggregate() {
		byKind[s.Kind] = s
	}
	for _, kind := range []string{"sim.run", "sim.warmup", "sim.measure", "sim.drain"} {
		if byKind[kind].Count != 1 {
			t.Fatalf("span %s count = %d, want 1 (stats: %+v)", kind, byKind[kind].Count, byKind)
		}
	}
	run := byKind["sim.run"]
	phases := byKind["sim.warmup"].TotalNS + byKind["sim.measure"].TotalNS + byKind["sim.drain"].TotalNS
	if run.TotalNS < phases {
		t.Fatalf("sim.run total %d < sum of phases %d", run.TotalNS, phases)
	}
}

func TestResultStringIncludesP99AndSaturated(t *testing.T) {
	r := Result{Cycles: 10, AvgLatency: 5, LatencyP50: 4.5, LatencyP95: 8, LatencyP99: 9.5}
	s := r.String()
	for _, want := range []string{"p50=4.50", "p95=8.00", "p99=9.50"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "SATURATED") {
		t.Fatalf("String() = %q", s)
	}
	r.Saturated = true
	if s := r.String(); !strings.Contains(s, "SATURATED") {
		t.Fatalf("String() = %q", s)
	}
}

// TestRunLatencyPercentilesFromHistogram pins the satellite contract: the
// reported percentiles come from the log-scaled histogram, so they are
// ordered, bracket the mean sensibly, and match the registry histogram's
// own quantiles.
func TestRunLatencyPercentilesFromHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	res := runInstrumented(t, reg, nil)
	if res.LatencyP50 <= 0 || res.LatencyP50 > res.LatencyP95 || res.LatencyP95 > res.LatencyP99 {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	hs := reg.Snapshot().Histograms["sim.latency_cycles"]
	if got, want := hs.Quantile(0.99), res.LatencyP99; got != want {
		t.Fatalf("registry q99 = %v, result p99 = %v (should both come from the same histogram)", got, want)
	}
	if rel := (res.LatencyP99 - res.AvgLatency) / res.AvgLatency; rel < -1 {
		t.Fatalf("p99 %v implausible vs mean %v", res.LatencyP99, res.AvgLatency)
	}
}
