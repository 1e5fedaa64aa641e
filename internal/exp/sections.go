package exp

import (
	"fmt"
	"runtime"
	"time"

	"routerless/internal/chiplet"
	"routerless/internal/drl"
	"routerless/internal/noc3d"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/search"
	"routerless/internal/stats"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

// section61Threads reproduces the §6.1 multi-threading study: for an
// equal episode budget on a 10×10 NoC, single- versus multi-threaded
// search compared on wall time, valid designs found, and hop-count SD.
// The paper ran wall-clock-bounded searches (6 vs 49 designs in 10h, 44%
// lower SD); with an episode budget the headline is the wall-time speedup
// plus at-least-parity on design quality.
func section61Threads(o Options) *Report {
	n, cap := 10, 18
	episodes := 6
	if !o.Quick {
		episodes = 24
	}
	r := &Report{
		ID:     "S6.1",
		Title:  "Multi-threaded exploration efficacy (10x10)",
		Header: []string{"threads", "episodes", "wall time", "valid", "min hops", "SD hops"},
		Notes: []string{
			"paper (10h wall budget): 1 thread -> 6 valid designs; multi-threaded -> 49, with 44% lower hop SD",
			fmt.Sprintf("host has %d CPU core(s): wall-time speedup requires >1; equal-episode budgets isolate search quality", runtime.NumCPU()),
		},
	}
	for _, threads := range []int{1, 4} {
		start := time.Now()
		res := runDRL(n, cap, episodes, o, func(c *drl.Config) { c.Threads = threads })
		elapsed := time.Since(start).Round(time.Millisecond)
		hops := validHops(res)
		r.Add(fmt.Sprintf("%d", threads), fmt.Sprintf("%d", episodes),
			elapsed.String(), fmt.Sprintf("%d", len(res.Valid)),
			f(stats.Min(hops)), fmt.Sprintf("%.4f", stats.StdDev(hops)))
	}
	return r
}

// section67Reliability reproduces the §6.7 reliability analysis: average
// path diversity (loops per node pair) for REC versus DRL at equal
// overlapping, plus the damage a single loop failure causes (a failed
// link breaks its whole unidirectional loop).
func section67Reliability(o Options) *Report {
	n := 8
	r := &Report{
		ID:     "S6.7",
		Title:  "Reliability: path diversity and single-loop-failure damage (8x8)",
		Header: []string{"design", "avg paths/pair", "worst-failure disconnected pairs", "failures tolerated (avg)"},
		Notes: []string{
			"paper: REC 2.77 paths between any two nodes on average; DRL 3.79 at equal overlapping",
		},
	}
	recT := recDesign(n, o)
	drlT := drlDesign(n, rec.MaxOverlap(n), o)
	for _, row := range []struct {
		name string
		t    *topo.Topology
	}{{"REC", recT}, {"DRL", drlT}} {
		if row.t == nil {
			r.Add(row.name, "N/A", "N/A", "N/A")
			continue
		}
		div := row.t.AveragePathDiversity()
		worst := 0
		for i := 0; i < row.t.NumLoops(); i++ {
			c := row.t.Clone()
			c.RemoveLoop(i)
			if _, un := c.AverageHops(); un > worst {
				worst = un
			}
		}
		r.Add(row.name, f(div), fmt.Sprintf("%d", worst), f(div-1))
	}
	return r
}

// ablations compares the full framework against its pure-MCTS (no
// DNN), DNN-only (no tree), greedy-only (Algorithm 1 alone) and weak-
// penalty variants on an 8×8 search — the design-choice ablations listed
// in DESIGN.md (A1–A3).
func ablations(o Options) *Report {
	n, cap := 8, 14
	episodes := searchEpisodes(n, o.Quick)
	r := &Report{
		ID:     "A1-A3",
		Title:  "Framework ablations (8x8, equal episode budget)",
		Header: []string{"variant", "valid", "best hops", "mean hops"},
		Notes: []string{
			"greedy-only is deterministic: a single design, no exploration",
		},
	}
	add := func(name string, res *drl.Result) {
		hops := validHops(res)
		r.Add(name, fmt.Sprintf("%d/%d", len(res.Valid), episodes),
			f(stats.Min(hops)), f(stats.Mean(hops)))
	}
	// The full framework is the search behind the 8×8 cap-14 DRL design
	// the other reports simulate.
	add("full DRL", drlSearch(n, cap, o))
	add("no DNN (A1)", runDRL(n, cap, episodes, o, func(c *drl.Config) { c.UseDNN = false }))
	add("no MCTS (A2a)", runDRL(n, cap, episodes, o, func(c *drl.Config) { c.UseMCTS = false }))
	add("weak illegal penalty (A3)", runDRL(n, cap, episodes, o, func(c *drl.Config) { c.IllegalPenalty = -0.1 }))

	env := rl.NewEnv(n, cap)
	rl.GreedyComplete(env)
	g := "N/A"
	if env.FullyConnected() {
		g = f(env.AverageHops())
	}
	r.Add("greedy only (A2b)", "1/1", g, g)
	return r
}

// imrComparison quantifies §6.7's "Comparison with IMR" discussion: the
// GA baseline against REC and DRL on hop count and zero-load latency.
func imrComparison(o Options) *Report {
	n := 8
	r := &Report{
		ID:     "S6.7-IMR",
		Title:  "IMR genetic-algorithm baseline vs REC vs DRL (8x8)",
		Header: []string{"design", "avg hops", "zero-load latency", "loops"},
		Notes: []string{
			"paper (via Alazemi et al.): REC beats IMR by 1.25x zero-load latency and 1.61x throughput",
		},
	}
	recT := recDesign(n, o)
	drlT := drlDesign(n, rec.MaxOverlap(n), o)
	imrT := imrDesign(n, o)
	for _, row := range []struct {
		name string
		t    *topo.Topology
	}{{"IMR", imrT}, {"REC", recT}, {"DRL", drlT}} {
		if row.t == nil {
			r.Add(row.name, "N/A", "N/A", "N/A")
			continue
		}
		hops, un := row.t.AverageHops()
		hopCell := f(hops)
		latCell := "N/A"
		if un == 0 {
			res := network{n: n, ring: row.t}.point(traffic.UniformRandom, 0.005, o)
			latCell = fmt.Sprintf("%.1f", res.AvgLatency)
		} else {
			// The GA failed to reach full connectivity in budget — the
			// §3.1 critique of random-mutation search, reproduced.
			hopCell += fmt.Sprintf(" (%d pairs unconnected)", un)
		}
		r.Add(row.name, hopCell, latCell, fmt.Sprintf("%d", row.t.NumLoops()))
	}
	return r
}

// section68Broad exercises the §6.8 broad-applicability instantiations:
// the generic framework exploring 3-D NoC link insertion and chiplet
// interposer placement, reporting hop improvements over each baseline.
func section68Broad(o Options) *Report {
	r := &Report{
		ID:     "S6.8",
		Title:  "Broad applicability: generic framework on 3-D NoC and chiplet problems",
		Header: []string{"problem", "baseline hops", "explored hops", "improvement"},
		Notes: []string{
			"the paper discusses these as future applications (§6.8); implemented via internal/search",
		},
	}
	episodes := 8
	if !o.Quick {
		episodes = 40
	}

	cfg := search.DefaultConfig()
	cfg.Episodes = episodes
	cfg.Epsilon = 0.3
	cfg.MaxSteps = 64
	cfg.Seed = o.Seed
	cons := noc3d.DefaultConstraints(4, 2)
	best3d, base3d, _ := noc3d.Explore(4, 2, cons, cfg)
	if best3d == nil {
		r.Add("3-D NoC 4x4x2", f(base3d), "N/A", "N/A")
	} else {
		h := best3d.AvgHops()
		r.Add("3-D NoC 4x4x2", f(base3d), f(h), fmt.Sprintf("%.1f%%", 100*(base3d-h)/base3d))
	}

	ccfg := search.DefaultConfig()
	ccfg.Episodes = episodes
	ccfg.Epsilon = 0.4
	ccfg.MaxSteps = 48
	ccfg.Seed = o.Seed
	sys := chiplet.DefaultSystem()
	bestC, _ := chiplet.Explore(sys, ccfg)
	// Baseline: chiplets joined by a single greedy link set from one
	// episode of pure greedy (epsilon 1).
	gcfg := ccfg
	gcfg.Episodes = 1
	gcfg.Epsilon = 1
	greedyC, _ := chiplet.Explore(sys, gcfg)
	if bestC == nil || greedyC == nil {
		r.Add("chiplet 2x2 of 3x3", "N/A", "N/A", "N/A")
		return r
	}
	gb := greedyC.AvgInterChipletHops(1000)
	eb := bestC.AvgInterChipletHops(1000)
	r.Add("chiplet 2x2 of 3x3", f(gb), f(eb), fmt.Sprintf("%.1f%%", 100*(gb-eb)/gb))
	return r
}
