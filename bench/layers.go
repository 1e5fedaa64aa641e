package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"routerless/internal/obs"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the ones BENCHMARK.json
// bounds. Each workload gives each one its own meaning; README.md has the
// table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_us", "us"},
	{"quality_ratio", "ratio"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"drl.train_ms", "ms"},
	{"drl.episode_p50_ms", "ms"},
	{"drl.episode_p95_ms", "ms"},
	{"drl.valid_frac", "ratio"},
	{"drl.steps_per_episode", "count"},
	{"nn.forward_us", "us"},
	{"nn.forwards_per_episode", "count"},
	{"infer.submit_us", "us"},
	{"infer.forward_batch_ms", "ms"},
	{"infer.queue_wait_us", "us"},
	{"infer.batch_occupancy", "count"},
	{"infer.cache_hit_frac", "ratio"},
	{"rl.episode_self_ms", "ms"},
	{"mcts.select_us", "us"},
	{"mcts.expand_self_us", "us"},
	{"mcts.backup_us", "us"},
	{"mcts.tree_states", "count"},
	{"search.noc3d_ms_per_episode", "ms"},
	{"search.chiplet_ms_per_episode", "ms"},
	{"search.noc3d_tree_states", "count"},
	{"search.chiplet_tree_states", "count"},
	{"sim.ring_kcycles_per_s", "kcycles/s"},
	{"sim.mesh_kcycles_per_s", "kcycles/s"},
	{"sim.ring_ns_per_cycle_low", "ns"},
	{"sim.ring_ns_per_cycle_high", "ns"},
	{"sim.mesh_ns_per_cycle_low", "ns"},
	{"sim.mesh_ns_per_cycle_high", "ns"},
	{"sim.ring_active_frac", "ratio"},
	{"sim.mesh_active_frac", "ratio"},
	{"sim.warmup_ms", "ms"},
	{"sim.measure_ms", "ms"},
	{"sim.drain_ms", "ms"},
	{"sim.drain_cycles", "count"},
	{"sim.build_ms", "ms"},
	{"sim.flits_per_s", "flits/s"},
	{"traffic.tick_ns", "ns"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// telemetry is what traced jobs record into: the program's own tracer and
// registry, a track for the spans the benchmark goroutine's calls record,
// and sums the benchmark takes with its own timers around those calls.
type telemetry struct {
	tracer *obs.Tracer
	reg    *obs.Registry
	shard  *obs.TraceShard
	sums   map[string]float64
}

func newTelemetry() *telemetry {
	tr := obs.NewTracer(1 << 14)
	return &telemetry{
		tracer: tr,
		reg:    obs.NewRegistry(),
		shard:  tr.Shard("bench"),
		sums:   map[string]float64{},
	}
}

// notWorkerKinds are recorded off the thread whose time they would
// explain: drl.run is the wall the worker spans cover, and the broker's
// spans overlap infer.submit, which already counts the wait for them.
var notWorkerKinds = map[string]bool{
	"drl.run":              true,
	"infer.queue_wait":     true,
	"infer.batch_assemble": true,
	"infer.forward_batch":  true,
}

// layerMetrics turns the traced jobs' spans, registry and sums into the
// per-layer metrics. trace is the tracer's Chrome trace, which alone keeps
// per-span durations.
func (t *telemetry) layerMetrics(trace []byte, overhead float64) (map[string]float64, error) {
	spans := map[string]obs.SpanStat{}
	for _, s := range t.tracer.Aggregate() {
		spans[s.Kind] = s
	}
	meanNS := func(kind string) float64 {
		s := spans[kind]
		return div(float64(s.TotalNS), float64(s.Count))
	}
	episodes, err := spanDurations(trace, "drl.episode")
	if err != nil {
		return nil, err
	}
	snap := t.reg.Snapshot()
	sum := t.sums
	eps := sum["drl.episodes"]

	attributed, wall := sum["bench.attributed_ns"], sum["bench.wall_ns"]
	for kind, s := range spans {
		if !notWorkerKinds[kind] {
			attributed += float64(s.SelfNS)
		}
	}
	wall += float64(spans["drl.run"].TotalNS)

	return map[string]float64{
		"drl.train_ms":            div(float64(spans["drl.train"].TotalNS), eps) / 1e6,
		"drl.episode_p50_ms":      quantile(episodes, 0.50) / 1e6,
		"drl.episode_p95_ms":      quantile(episodes, 0.95) / 1e6,
		"drl.valid_frac":          div(sum["drl.valid"], eps),
		"drl.steps_per_episode":   div(sum["drl.steps"], eps),
		"nn.forward_us":           meanNS("nn.forward") / 1e3,
		"nn.forwards_per_episode": div(float64(spans["nn.forward"].Count), eps),
		"infer.submit_us":         meanNS("infer.submit") / 1e3,
		"infer.forward_batch_ms":  meanNS("infer.forward_batch") / 1e6,
		"infer.queue_wait_us":     snap.Histograms["infer.queue_wait_us"].Mean(),
		"infer.batch_occupancy":   snap.Histograms["infer.batch_occupancy"].Mean(),
		"infer.cache_hit_frac":    div(float64(snap.Counters["infer.cache_hits"]), float64(snap.Counters["infer.requests"])),
		"rl.episode_self_ms":      div(float64(spans["drl.episode"].SelfNS), eps) / 1e6,
		"mcts.select_us":          meanNS("mcts.select") / 1e3,
		"mcts.expand_self_us":     div(float64(spans["mcts.expand"].SelfNS), float64(spans["mcts.expand"].Count)) / 1e3,
		"mcts.backup_us":          meanNS("mcts.backup") / 1e3,
		"mcts.tree_states":        div(sum["mcts.tree_states"], sum["drl.searches"]),

		"search.noc3d_ms_per_episode":   div(sum["search.noc3d_ns"], sum["search.noc3d_episodes"]) / 1e6,
		"search.chiplet_ms_per_episode": div(sum["search.chiplet_ns"], sum["search.chiplet_episodes"]) / 1e6,
		"search.noc3d_tree_states":      div(sum["search.noc3d_tree_states"], sum["search.explores"]),
		"search.chiplet_tree_states":    div(sum["search.chiplet_tree_states"], sum["search.explores"]),

		"sim.ring_kcycles_per_s":     div(sum["sim.ring.cycles"], sum["sim.ring.ns"]) * 1e6,
		"sim.mesh_kcycles_per_s":     div(sum["sim.mesh.cycles"], sum["sim.mesh.ns"]) * 1e6,
		"sim.ring_ns_per_cycle_low":  div(sum["sim.ring.low.ns"], sum["sim.ring.low.cycles"]),
		"sim.ring_ns_per_cycle_high": div(sum["sim.ring.high.ns"], sum["sim.ring.high.cycles"]),
		"sim.mesh_ns_per_cycle_low":  div(sum["sim.mesh.low.ns"], sum["sim.mesh.low.cycles"]),
		"sim.mesh_ns_per_cycle_high": div(sum["sim.mesh.high.ns"], sum["sim.mesh.high.cycles"]),
		"sim.ring_active_frac":       div(sum["sim.ring.active"], sum["sim.ring.samples"]),
		"sim.mesh_active_frac":       div(sum["sim.mesh.active"], sum["sim.mesh.samples"]),
		"sim.warmup_ms":              meanNS("sim.warmup") / 1e6,
		"sim.measure_ms":             meanNS("sim.measure") / 1e6,
		"sim.drain_ms":               meanNS("sim.drain") / 1e6,
		"sim.drain_cycles":           div(sum["sim.drain_cycles"], sum["sim.runs"]),
		"sim.build_ms":               div(sum["sim.build_ns"], sum["sim.runs"]) / 1e6,
		"sim.flits_per_s":            div(sum["sim.flits"], sum["sim.ring.ns"]+sum["sim.mesh.ns"]) * 1e9,
		"traffic.tick_ns":            div(sum["traffic.tick_ns"], sum["traffic.ticks"]),

		"trace.coverage":      div(attributed, wall),
		"trace.overhead_frac": overhead,
	}, nil
}

// spanDurations reads the durations, in ns, of every span named kind from
// a Chrome trace written by obs.Tracer.WriteTrace.
func spanDurations(trace []byte, kind string) ([]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // µs
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	var out []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == kind {
			out = append(out, ev.Dur*1e3)
		}
	}
	return out, nil
}

// quantile is the nearest-rank q-quantile of xs; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// div is a/b, or 0 when b is 0 (a layer the workload never reached).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
