package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"routerless/internal/chiplet"
	"routerless/internal/drl"
	"routerless/internal/noc3d"
	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/search"
	"routerless/internal/sim"
	"routerless/internal/stats"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// workloads are sized so that one job takes 0.5–3 s on a 2-CPU x86-64
// host, which fits 6–40 jobs, each on its own seed, into a 20 s run.
// search-10x10-broker runs the longest jobs because each search first
// builds two 10×10 networks outside any episode. README.md says why each
// workload is here.
var workloads = []workload{
	searchWorkload("search-8x8", searchSpec{n: 8, cap: 14, episodes: 30}),
	searchWorkload("search-10x10-broker", searchSpec{n: 10, cap: 18, episodes: 30, inferBatch: 8}),
	synthWorkload("sim-synthetic-10x10", synthSpec{
		n:        10,
		patterns: []traffic.Pattern{traffic.UniformRandom, traffic.Transpose, traffic.BitComplement, traffic.BitRotation},
		rates:    []float64{0.005, 0.02, 0.1, 0.3},
		run:      sim.RunConfig{WarmupCycles: 500, MeasureCycles: 2500, DrainCycles: 5000},
	}),
	parsecWorkload("sim-parsec-8x8", parsecSpec{
		n:   8,
		run: sim.RunConfig{WarmupCycles: 2000, MeasureCycles: 30000, DrainCycles: 20000},
	}),
	exploreWorkload("explore-generic", exploreSpec{n: 6, layers: 2, episodes: 50}),
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// DRL search: one job is one single-learner nocexplore search.

type searchSpec struct {
	n, cap, episodes int
	// inferBatch > 0 routes evaluations through the batched-inference
	// broker instead of the per-worker Forward.
	inferBatch int
}

type searchJob struct {
	spec    searchSpec
	recHops float64
	s       *drl.Searcher
	events  bytes.Buffer
	log     *obs.Logger
	res     *drl.Result
	tel     *telemetry
}

// searchWorkload: setup builds the REC reference design and the searcher
// (network and parameter server); the job runs the search. The episode
// events are logged to count trajectory steps, from which step_us counts
// the work done.
func searchWorkload(name string, spec searchSpec) workload {
	return workload{name: name, setup: func(seed int64, tel *telemetry) (job, error) {
		ref, err := rec.Generate(spec.n)
		if err != nil {
			return nil, err
		}
		j := &searchJob{spec: spec, tel: tel}
		j.recHops, _ = ref.AverageHops()
		j.log = obs.NewLogger(&j.events, obs.LevelDebug)
		cfg := drl.DefaultConfig(spec.n, spec.cap)
		cfg.Episodes = spec.episodes
		cfg.InferBatch = spec.inferBatch
		cfg.Seed = seed
		cfg.Events = j.log
		if tel != nil {
			cfg.Trace, cfg.Metrics = tel.tracer, tel.reg
		}
		if j.s, err = drl.New(cfg); err != nil {
			return nil, err
		}
		return j, nil
	}}
}

func (j *searchJob) run() {
	j.res = j.s.Run()
	j.log.Flush()
}

func (j *searchJob) check(h hash.Hash64) outcome {
	var o outcome
	o.ops = j.spec.episodes
	fail := func(format string, args ...any) {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf("search %dx%d: ", j.spec.n, j.spec.n)+fmt.Sprintf(format, args...))
	}
	episodes := 0
	for _, line := range bytes.Split(j.events.Bytes(), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Event string `json:"event"`
			Steps int    `json:"steps"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			fail("episode log: %v", err)
			continue
		}
		if ev.Event == obs.EventEpisode {
			// An episode's unit of work is each guided step (a decision and
			// its A2C training sample) plus one for its close (the
			// Algorithm-1 completion and the parameter update), whose cost
			// does not depend on the step count.
			episodes++
			o.steps += float64(ev.Steps) + 1
		}
	}
	if j.res.Episodes != j.spec.episodes || episodes != j.spec.episodes {
		fail("ran %d episodes, logged %d, want %d", j.res.Episodes, episodes, j.spec.episodes)
	}
	if j.tel != nil {
		s := j.tel.sums
		s["drl.searches"]++
		s["drl.episodes"] += float64(j.res.Episodes)
		s["drl.valid"] += float64(len(j.res.Valid))
		s["drl.steps"] += o.steps - float64(episodes)
		s["mcts.tree_states"] += float64(j.res.TreeSize)
	}
	for _, d := range j.res.Valid {
		if err := checkDesign(d.Topo, j.spec.cap, d.AvgHops); err != nil {
			fail("episode %d design: %v", d.Episode, err)
		}
		if d.AvgHops < j.res.Best.AvgHops {
			fail("episode %d design (%.4f hops) beats the reported best (%.4f)", d.Episode, d.AvgHops, j.res.Best.AvgHops)
		}
	}
	// A search that completes no design under the cap leaves the user with
	// the REC design, so it scores 1.
	o.quality = 1
	if best := j.res.Best; best.Topo != nil {
		o.quality = best.AvgHops / j.recHops
		fmt.Fprintf(h, "search %s %v ", best.Topo.Fingerprint(), best.AvgHops)
	}
	fmt.Fprintf(h, "%d %d\n", len(j.res.Valid), j.res.TreeSize)
	return o
}

// ---------------------------------------------------------------------------
// Simulation: one job is one pass over a list of simulation points, each on
// a freshly built network.

type simPoint struct {
	ring   bool    // the REC ring network, else Mesh-2
	label  string  // traffic pattern or application
	rate   float64 // offered flits/node/cycle; 0 for an application model
	net    sim.Network
	src    sim.Source
	loops  int // loops (ring) or routers (mesh), the active-fraction base
	build  time.Duration
	res    sim.Result
	dur    time.Duration
	cycles int
}

type simJob struct {
	what   string
	cfg    sim.RunConfig
	points []simPoint
	tel    *telemetry
}

// newPoint builds one point's network and traffic source.
func newPoint(t *topo.Topology, ring bool, label string, rate float64, src func(linkBits int) sim.Source) simPoint {
	t0 := time.Now()
	p := simPoint{ring: ring, label: label, rate: rate}
	if ring {
		p.net = sim.NewRing(t, sim.DefaultRingConfig())
		p.src = src(128)
		p.loops = t.NumLoops()
	} else {
		p.net = sim.NewMesh(t.Rows(), t.Cols(), sim.MeshN(2))
		p.src = src(256)
		p.loops = t.N()
	}
	p.build = time.Since(t0)
	return p
}

// kind names the point's network in per-layer sums and check messages.
func (p *simPoint) kind() string {
	if p.ring {
		return "ring"
	}
	return "mesh"
}

// class splits points for the per-layer ns-per-cycle metrics: "high" for
// offered rates of 0.1 and up, "low" for the rest (the synthetic grid's
// 0.005 and 0.02, and every application model).
func (p *simPoint) class() string {
	if p.rate >= 0.1 {
		return "high"
	}
	return "low"
}

type synthSpec struct {
	n        int
	patterns []traffic.Pattern
	rates    []float64
	run      sim.RunConfig
}

// synthWorkload is the Fig. 10 sweep: REC ring and Mesh-2 under each
// pattern at each rate.
func synthWorkload(name string, spec synthSpec) workload {
	return workload{name: name, setup: func(seed int64, tel *telemetry) (job, error) {
		t, err := rec.Generate(spec.n)
		if err != nil {
			return nil, err
		}
		j := &simJob{what: "synthetic", cfg: spec.run, tel: tel}
		for _, p := range spec.patterns {
			for _, r := range spec.rates {
				for _, ring := range []bool{true, false} {
					j.points = append(j.points, newPoint(t, ring, p.String(), r, func(bits int) sim.Source {
						return traffic.NewInjector(spec.n, spec.n, p, r, bits, seed)
					}))
				}
			}
		}
		return j, nil
	}}
}

type parsecSpec struct {
	n   int
	run sim.RunConfig
}

// parsecWorkload is Fig. 11: every PARSEC application model on the REC
// ring and on Mesh-2.
func parsecWorkload(name string, spec parsecSpec) workload {
	return workload{name: name, setup: func(seed int64, tel *telemetry) (job, error) {
		t, err := rec.Generate(spec.n)
		if err != nil {
			return nil, err
		}
		j := &simJob{what: "parsec", cfg: spec.run, tel: tel}
		for _, prof := range traffic.Parsec() {
			for _, ring := range []bool{true, false} {
				j.points = append(j.points, newPoint(t, ring, prof.Name, 0, func(bits int) sim.Source {
					return traffic.NewAppInjector(prof, spec.n, spec.n, bits, seed)
				}))
			}
		}
		return j, nil
	}}
}

// latencyRatio is the ring's mean packet latency over the mesh's at low
// load — the synthetic grid's rates below 0.1 and every application model —
// averaged over the patterns or applications.
func latencyRatio(points []simPoint) float64 {
	type sums struct{ latency, packets [2]float64 } // [mesh, ring]
	by := map[string]*sums{}
	var labels []string // first-seen order, so the mean sums in a fixed order
	for i := range points {
		p := &points[i]
		if p.class() != "low" {
			continue
		}
		s := by[p.label]
		if s == nil {
			s = &sums{}
			by[p.label] = s
			labels = append(labels, p.label)
		}
		k := 0
		if p.ring {
			k = 1
		}
		s.latency[k] += p.res.AvgLatency * float64(p.res.PacketsDone)
		s.packets[k] += float64(p.res.PacketsDone)
	}
	var ratios []float64
	for _, l := range labels {
		s := by[l]
		ratios = append(ratios, (s.latency[1]/s.packets[1])/(s.latency[0]/s.packets[0]))
	}
	return stats.Mean(ratios)
}

func (j *simJob) run() {
	tel := j.tel
	for i := range j.points {
		p := &j.points[i]
		cfg := j.cfg
		src := p.src
		var ticks *tickTimer
		if tel != nil {
			ticks = &tickTimer{src: p.src}
			src = ticks
			cfg.Trace = tel.shard
			cfg.Metrics = tel.reg
			cfg.OnInterval = func(s sim.IntervalStats) {
				active := s.ActiveRouters
				if p.ring {
					active = s.ActiveLoops
				}
				tel.sums["sim."+p.kind()+".active"] += float64(active) / float64(p.loops)
				tel.sums["sim."+p.kind()+".samples"]++
			}
		}
		t0 := time.Now()
		p.res = sim.Run(p.net, src, cfg)
		p.dur = time.Since(t0)
		p.cycles = p.net.Cycle()
		if tel != nil {
			tel.addSimPoint(p, cfg, ticks)
		}
	}
}

// addSimPoint adds one traced point's timings to the per-layer sums.
func (t *telemetry) addSimPoint(p *simPoint, cfg sim.RunConfig, ticks *tickTimer) {
	ns, cycles := float64(p.dur.Nanoseconds()), float64(p.cycles)
	t.sums["sim."+p.kind()+".ns"] += ns
	t.sums["sim."+p.kind()+".cycles"] += cycles
	t.sums["sim."+p.kind()+"."+p.class()+".ns"] += ns
	t.sums["sim."+p.kind()+"."+p.class()+".cycles"] += cycles
	t.sums["sim.runs"]++
	t.sums["sim.build_ns"] += float64(p.build.Nanoseconds())
	t.sums["sim.drain_cycles"] += cycles - float64(cfg.WarmupCycles+cfg.MeasureCycles)
	if fc, ok := p.net.(interface{ DeliveredFlits() int64 }); ok {
		t.sums["sim.flits"] += float64(fc.DeliveredFlits())
	}
	t.sums["traffic.tick_ns"] += float64(ticks.ns)
	t.sums["traffic.ticks"] += float64(ticks.timed)
	t.sums["bench.wall_ns"] += ns
}

func (j *simJob) check(h hash.Hash64) outcome {
	var o outcome
	for i := range j.points {
		p := &j.points[i]
		o.ops++
		o.steps += float64(p.cycles)
		if err := checkResult(p.res, j.cfg); err != nil {
			o.failed++
			o.errs = append(o.errs, fmt.Sprintf("%s %s %s rate %g: %v", j.what, p.kind(), p.label, p.rate, err))
		}
		fmt.Fprintf(h, "sim %v %s %v %+v\n", p.ring, p.label, p.rate, p.res)
	}
	o.quality = latencyRatio(j.points)
	return o
}

// tickTimer is a pass-through sim.Source that times every 64th Tick, so a
// traced run sees the injector's cost without a clock read every cycle.
type tickTimer struct {
	src       sim.Source
	n         int
	ns, timed int64
}

func (t *tickTimer) Tick() []traffic.Request {
	t.n++
	if t.n%64 != 0 {
		return t.src.Tick()
	}
	t0 := time.Now()
	reqs := t.src.Tick()
	t.ns += time.Since(t0).Nanoseconds()
	t.timed++
	return reqs
}

// ---------------------------------------------------------------------------
// Generic exploration (§6.8): one job is a 3-D NoC link-placement search
// and a chiplet interposer search on internal/search.

type exploreSpec struct {
	n, layers, episodes int
}

type exploreJob struct {
	spec    exploreSpec
	cons    noc3d.Constraints
	sys     chiplet.System
	cfg3d   search.Config
	cfgC    search.Config
	base3d  float64 // the base 3-D mesh's average hops
	greedyC float64 // one pure-greedy chiplet episode's inter-chiplet hops
	best3d  *noc3d.Design
	res3d   *search.Result
	bestC   *chiplet.Design
	resC    *search.Result
	tel     *telemetry
}

// exploreWorkload: setup computes both baselines; the job runs both
// searches with §6.8's ε and step caps. quality_ratio is the mean of the
// two bests over their baselines.
func exploreWorkload(name string, spec exploreSpec) workload {
	return workload{name: name, setup: func(seed int64, tel *telemetry) (job, error) {
		j := &exploreJob{spec: spec, cons: noc3d.DefaultConstraints(spec.n, spec.layers), sys: chiplet.DefaultSystem(), tel: tel}
		j.cfg3d = search.DefaultConfig()
		j.cfg3d.Episodes, j.cfg3d.Epsilon, j.cfg3d.MaxSteps, j.cfg3d.Seed = spec.episodes, 0.3, 64, seed
		j.cfgC = search.DefaultConfig()
		j.cfgC.Episodes, j.cfgC.Epsilon, j.cfgC.MaxSteps, j.cfgC.Seed = spec.episodes, 0.4, 48, seed
		j.base3d = noc3d.NewDesign(spec.n, spec.layers, j.cons).AvgHops()
		greedy := j.cfgC
		greedy.Episodes, greedy.Epsilon = 1, 1
		g, _ := chiplet.Explore(j.sys, greedy)
		if g == nil {
			return nil, fmt.Errorf("chiplet: greedy baseline found no design")
		}
		j.greedyC = g.AvgInterChipletHops(chipletPenalty(j.sys))
		return j, nil
	}}
}

func (j *exploreJob) run() {
	t0 := time.Now()
	j.best3d, _, j.res3d = noc3d.Explore(j.spec.n, j.spec.layers, j.cons, j.cfg3d)
	t1 := time.Now()
	j.bestC, j.resC = chiplet.Explore(j.sys, j.cfgC)
	t2 := time.Now()
	if j.tel == nil {
		return
	}
	s := j.tel.sums
	s["search.explores"]++
	s["search.noc3d_ns"] += float64(t1.Sub(t0).Nanoseconds())
	s["search.noc3d_episodes"] += float64(len(j.res3d.Outcomes))
	s["search.noc3d_tree_states"] += float64(j.res3d.TreeSize)
	s["search.chiplet_ns"] += float64(t2.Sub(t1).Nanoseconds())
	s["search.chiplet_episodes"] += float64(len(j.resC.Outcomes))
	s["search.chiplet_tree_states"] += float64(j.resC.TreeSize)
	s["bench.attributed_ns"] += float64(t2.Sub(t0).Nanoseconds())
	s["bench.wall_ns"] += float64(time.Since(t0).Nanoseconds())
}

// chipletPenalty is the hop charge chiplet's final reward puts on an
// unreachable core pair.
func chipletPenalty(sys chiplet.System) float64 { return float64(4 * sys.Cores()) }

func (j *exploreJob) check(h hash.Hash64) outcome {
	var o outcome
	o.ops = len(j.res3d.Outcomes) + len(j.resC.Outcomes)
	fail := func(format string, args ...any) {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
	for _, r := range []*search.Result{j.res3d, j.resC} {
		for _, out := range r.Outcomes {
			o.steps += float64(out.Steps)
		}
	}
	if len(j.res3d.Outcomes) != j.spec.episodes || len(j.resC.Outcomes) != j.spec.episodes {
		fail("explore ran %d + %d episodes, want %d each", len(j.res3d.Outcomes), len(j.resC.Outcomes), j.spec.episodes)
	}
	if err := checkNoc3d(j.best3d, j.cons, j.base3d-j.res3d.Best.Final); err != nil {
		fail("noc3d best: %v", err)
	}
	if err := checkChiplet(j.bestC, -j.resC.Best.Final, chipletPenalty(j.sys)); err != nil {
		fail("chiplet best: %v", err)
	}
	if o.failed > 0 {
		return o
	}
	hops3d, hopsC := j.best3d.AvgHops(), j.bestC.AvgInterChipletHops(chipletPenalty(j.sys))
	o.quality = (hops3d/j.base3d + hopsC/j.greedyC) / 2
	fmt.Fprintf(h, "noc3d %v %v\nchiplet %v %v\n", j.best3d.Links(), hops3d, j.bestC.Links(), hopsC)
	return o
}
