// Package exp reproduces every table and figure of the paper's evaluation
// (§6). Each experiment builds its workloads, runs the DRL search and/or
// the cycle-accurate simulator, and returns a Report whose rows mirror the
// published artifact. The same functions back cmd/benchtab and the
// repository-level benchmarks; EXPERIMENTS.md records paper-vs-measured.
//
// Several artifacts are views of the same runs (Figures 11, 12 and 14 and
// Table 5 read one set of PARSEC runs; Figure 16's 10×10 row is Figure
// 10's uniform-random curves), so one All or ByID call memoizes its
// designs, searches, PARSEC runs and saturation sweeps and every report
// reads them from there.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"routerless/internal/drl"
	"routerless/internal/imr"
	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/sim"
	"routerless/internal/stats"
	"routerless/internal/topo"
	"routerless/internal/traffic"
	"routerless/internal/viz"
)

// Options tunes experiment budgets.
type Options struct {
	// Quick selects reduced budgets for test/bench runs; the full budgets
	// approximate the paper's sweeps and take minutes per experiment.
	Quick bool
	// Seed drives every stochastic component.
	Seed int64
	// Workers is the worker-pool width for the parallel experiment paths
	// (RunParallel): 0 selects GOMAXPROCS, 1 runs every point on one
	// worker. Every width produces identical reports for the same seed.
	Workers int
	// Metrics, when non-nil, is threaded into the DRL searches the
	// experiments run, so benchtab's -metrics/-debug-addr flags observe
	// the long-running search phases.
	Metrics *obs.Registry
	// Trace, when non-nil, records exp.point spans (one per experiment
	// point on the parallel harness) and is threaded into the DRL searches
	// the experiments run, so benchtab's -trace flag covers the search,
	// inference, and simulation phases.
	Trace *obs.Tracer

	// runs is the memo of the All or ByID call these options run under.
	runs *memo
}

// Report is one regenerated artifact.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	rows := append([][]string{r.Header}, r.Rows...)
	b.WriteString(viz.Table(rows))
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Add appends a formatted row.
func (r *Report) Add(cells ...string) { r.Rows = append(r.Rows, cells) }

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// ---------------------------------------------------------------------------
// Experiment registry.

// experiments lists every experiment in publication order: the ID ByID
// takes (some reports print a longer one), what benchtab -list says of
// it, and the function that runs it.
var experiments = []struct {
	id, about string
	run       func(Options) *Report
}{
	{"T1", "Table 1: epsilon hyperparameter exploration (8x8)", table1Epsilon},
	{"T2", "Table 2: larger NoCs under node overlapping 18", table2LargerNoCs},
	{"T3", "Table 3: 8x8 wiring-resource sweep", table3Overlap8x8},
	{"T4", "Table 4: 10x10 wiring-resource sweep", table4Overlap10x10},
	{"T5", "Table 5: PARSEC execution time", table5ParsecExecTime},
	{"F9", "Figure 9: generated 4x4 topology", figure9Topology},
	{"F10", "Figure 10: synthetic latency/throughput, 10x10", figure10SyntheticLatency},
	{"F11", "Figure 11: PARSEC packet latency", figure11ParsecLatency},
	{"F12", "Figure 12: PARSEC hop count", figure12ParsecHops},
	{"F13", "Figure 13: power-performance tradeoff", figure13PowerPerf},
	{"F14", "Figure 14: PARSEC power", figure14ParsecPower},
	{"F15", "Figure 15: area comparison", figure15Area},
	{"F16", "Figure 16: synthetic scaling", figure16Scaling},
	{"S6.1", "multi-threaded search efficacy", section61Threads},
	{"S6.7", "reliability / path diversity", section67Reliability},
	{"S6.8", "broad applicability (3-D NoC, chiplet)", section68Broad},
	{"A", "framework ablations", ablations},
	{"IMR", "IMR GA baseline comparison", imrComparison},
}

// All runs every experiment in publication order, sharing one memo.
func All(o Options) []*Report {
	o.runs = newMemo()
	out := make([]*Report, len(experiments))
	for i, e := range experiments {
		out[i] = e.run(o)
	}
	return out
}

// ByID runs one experiment by its ID, with a memo of its own.
func ByID(id string, o Options) (*Report, error) {
	for _, e := range experiments {
		if e.id == id {
			o.runs = newMemo()
			return e.run(o), nil
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q", id)
}

// Known returns the ID of every experiment ByID runs, in All's order, and
// for each its benchtab -list line.
func Known() (ids, lines []string) {
	for _, e := range experiments {
		ids = append(ids, e.id)
		lines = append(lines, fmt.Sprintf("%-4s %s", e.id, e.about))
	}
	return ids, lines
}

// ---------------------------------------------------------------------------
// Run memo: one All or ByID call builds each design, search and
// simulation once.

// memo holds what one All or ByID call has built, by key. A key is built
// once: a caller asking for a key another caller is building waits for
// that build, while builds of different keys run concurrently.
type memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	v    any
}

func newMemo() *memo { return &memo{m: map[string]*memoEntry{}} }

// memoize returns the value o's memo holds under key, building it on
// first use. A nil value is memoized too.
func memoize[T any](o Options, key string, build func() T) T {
	o.runs.mu.Lock()
	e := o.runs.m[key]
	if e == nil {
		e = new(memoEntry)
		o.runs.m[key] = e
	}
	o.runs.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v.(T)
}

// searchEpisodes returns the DRL episode budget for a NoC size.
func searchEpisodes(n int, quick bool) int {
	if quick {
		switch {
		case n <= 4:
			return 10
		case n <= 8:
			return 8
		default:
			return 4
		}
	}
	switch {
	case n <= 4:
		return 60
	case n <= 8:
		return 40
	default:
		return 16
	}
}

// runDRL runs one DRL search on an n×n NoC under the cap for the episode
// budget, with the default settings as mutate leaves them and the
// options' seed and telemetry sinks.
func runDRL(n, cap, episodes int, o Options, mutate func(*drl.Config)) *drl.Result {
	cfg := drl.DefaultConfig(n, cap)
	cfg.Episodes = episodes
	cfg.Seed = o.Seed
	cfg.Metrics, cfg.Trace = o.Metrics, o.Trace
	mutate(&cfg)
	return drl.MustNew(cfg).Run()
}

// validHops lists the average hop count of each valid design a search
// found.
func validHops(res *drl.Result) []float64 {
	var hops []float64
	for _, d := range res.Valid {
		hops = append(hops, d.AvgHops)
	}
	return hops
}

// drlSearch runs the DRL search behind drlDesign for an n×n NoC under the
// cap.
func drlSearch(n, cap int, o Options) *drl.Result {
	return memoize(o, fmt.Sprintf("search/%d/%d", n, cap), func() *drl.Result {
		return runDRL(n, cap, searchEpisodes(n, o.Quick), o, func(c *drl.Config) {
			// The full-resolution DNN input (N²×N²) is prohibitive beyond
			// 10x10 within experiment budgets; the framework runs in its
			// MCTS+greedy configuration there (documented in
			// EXPERIMENTS.md).
			c.UseDNN = n <= 10
		})
	})
}

// drlDesign returns the best DRL design for an n×n NoC under the cap.
// When the search finds no fully connected design in budget it falls back
// to the greedy completion; nil is returned only when even that cannot
// connect the NoC under the cap.
func drlDesign(n, cap int, o Options) *topo.Topology {
	return memoize(o, fmt.Sprintf("drl/%d/%d", n, cap), func() *topo.Topology {
		if t := drlSearch(n, cap, o).Best.Topo; t != nil {
			return t
		}
		// Budget exhausted without a complete design: constructive
		// fallbacks. Plain greedy first; under tight caps (where myopic
		// greedy exhausts wiring) seed with the lite recursive layering
		// and let greedy spend the remaining slack.
		env := rl.NewEnv(n, cap)
		rl.GreedyImprove(env)
		if env.FullyConnected() {
			return env.Topology()
		}
		if lite, err := rec.GenerateLite(n); err == nil && lite.MaxOverlap() <= cap {
			env := rl.NewEnvFrom(lite, cap)
			rl.GreedyImprove(env)
			if env.FullyConnected() {
				return env.Topology()
			}
		}
		return nil
	})
}

// imrDesign returns the best individual of the IMR genetic algorithm for
// an n×n NoC.
func imrDesign(n int, o Options) *topo.Topology {
	return memoize(o, fmt.Sprintf("imr/%d", n), func() *topo.Topology {
		cfg := imr.DefaultConfig(n)
		cfg.Seed = o.Seed
		if o.Quick {
			cfg.Population = 30
			cfg.Generations = 40
		}
		return imr.Run(cfg).Best.Topo
	})
}

// recDesign returns the REC baseline.
func recDesign(n int, o Options) *topo.Topology {
	return memoize(o, fmt.Sprintf("rec/%d", n), func() *topo.Topology { return rec.MustGenerate(n) })
}

// avgHops is a nil-safe average hop count.
func avgHops(t *topo.Topology) float64 {
	if t == nil {
		return 0
	}
	m, _ := t.AverageHops()
	return m
}

// ---------------------------------------------------------------------------
// Simulation.

// runCfg returns measurement windows matched to the budget.
func runCfg(o Options) sim.RunConfig {
	if o.Quick {
		return sim.RunConfig{WarmupCycles: 800, MeasureCycles: 4000, DrainCycles: 8000}
	}
	return sim.RunConfig{WarmupCycles: 5000, MeasureCycles: 20000, DrainCycles: 40000}
}

// network is one simulated n×n NoC: routerless loops when ring is set,
// else a mesh whose routers take delay cycles.
type network struct {
	n, delay int
	ring     *topo.Topology
}

// column resolves a report column header to the n×n network it names:
// "Mesh-0", "Mesh-1" and "Mesh-2" are meshes with that router delay,
// "REC" is the recursive baseline and "DRL" the searched design at REC's
// overlap cap.
func column(col string, n int, o Options) network {
	switch col {
	case "Mesh-0", "Mesh-1", "Mesh-2":
		return network{n: n, delay: int(col[len(col)-1] - '0')}
	case "REC":
		return network{n: n, ring: recDesign(n, o)}
	case "DRL":
		return network{n: n, ring: drlDesign(n, rec.MaxOverlap(n), o)}
	}
	panic("exp: no network is named " + col)
}

// simulate builds the network and runs src's traffic over the budget's
// windows. src gets the link width in bits: 128 on loops, 256 on the
// mesh.
func (nw network) simulate(o Options, src func(linkBits int) sim.Source) sim.Result {
	if nw.ring != nil {
		return sim.Run(sim.NewRing(nw.ring, sim.DefaultRingConfig()), src(128), runCfg(o))
	}
	return sim.Run(sim.NewMesh(nw.n, nw.n, sim.MeshN(nw.delay)), src(256), runCfg(o))
}

// point simulates one synthetic injection rate.
func (nw network) point(p traffic.Pattern, rate float64, o Options) sim.Result {
	return nw.simulate(o, func(bits int) sim.Source {
		return traffic.NewInjector(nw.n, nw.n, p, rate, bits, o.Seed+17)
	})
}

// parsecRun returns one application model's run on the n×n network a
// column names.
func parsecRun(col string, n int, prof traffic.AppProfile, o Options) sim.Result {
	return memoize(o, fmt.Sprintf("parsec/%s/%d/%s", col, n, prof.Name), func() sim.Result {
		return column(col, n, o).simulate(o, func(bits int) sim.Source {
			return traffic.NewAppInjector(prof, n, n, bits, o.Seed+29)
		})
	})
}

// curve returns the load-latency curve of one pattern on the n×n network
// a column names: the sweep over sweepRates up to saturation.
func curve(col string, n int, p traffic.Pattern, o Options) []sim.SweepPoint {
	return memoize(o, fmt.Sprintf("curve/%s/%d/%v", col, n, p), func() []sim.SweepPoint {
		nw := column(col, n, o)
		return sweep(func(rate float64) sim.Result { return nw.point(p, rate, o) }, sweepRates(o))
	})
}

// sweep runs increasing injection rates until saturation (latency beyond
// 3× zero-load or undelivered packets), returning the load-latency curve.
// The zero-load baseline is taken from the first point that delivered any
// packets — a first point with zero completions (possible at very light
// load under short Quick windows) must not freeze the baseline at 0 and
// end the sweep on its successor. A saturated first point still stops the
// sweep immediately.
func sweep(run func(rate float64) sim.Result, rates []float64) []sim.SweepPoint {
	var pts []sim.SweepPoint
	zeroLoad := 0.0
	for _, r := range rates {
		res := run(r)
		pts = append(pts, sim.SweepPoint{Rate: r, Result: res})
		if zeroLoad == 0 && res.PacketsDone > 0 {
			zeroLoad = res.AvgLatency
		}
		if res.Saturated || (zeroLoad > 0 && res.AvgLatency > 3*zeroLoad) {
			break
		}
	}
	return pts
}

// sweepRates returns the paper's injection grid (start 0.005, step 0.005
// per §5), coarsened under Quick budgets.
func sweepRates(o Options) []float64 {
	step := 0.005
	max := 0.5
	if o.Quick {
		step = 0.02
	}
	var out []float64
	for r := 0.005; r <= max; r += step {
		out = append(out, r)
	}
	return out
}

// satThroughput extracts saturation throughput from sweep points.
func satThroughput(pts []sim.SweepPoint) float64 {
	return stats.SaturationThroughput(sim.Curve(pts), 3)
}

// zeroLoad extracts the zero-load latency from sweep points.
func zeroLoad(pts []sim.SweepPoint) float64 {
	return stats.ZeroLoadLatency(sim.Curve(pts))
}

// parsecSuite returns the modelled benchmark list, trimmed under Quick.
func parsecSuite(o Options) []traffic.AppProfile {
	all := traffic.Parsec()
	if o.Quick {
		// Keep the suite's extremes: a NoC-sensitive benchmark, an
		// insensitive one, and two mid-range ones.
		names := map[string]bool{"blackscholes": true, "canneal": true,
			"fluidanimate": true, "streamcluster": true}
		var out []traffic.AppProfile
		for _, p := range all {
			if names[p.Name] {
				out = append(out, p)
			}
		}
		return out
	}
	return all
}
