// Command nocsim runs the cycle-accurate simulator on a topology produced
// by nocgen (routerless) or on a mesh baseline, sweeping injection rates
// under a synthetic pattern or replaying a PARSEC-like application model.
//
// Usage:
//
//	nocsim -topo design.json -pattern uniform_random -rates 0.01,0.05,0.1
//	nocsim -mesh 8 -delay 2 -pattern transpose -rates 0.02,0.04
//	nocsim -topo design.json -app fluidanimate
//	nocsim -mesh 8 -metrics out.json -events run.jsonl -debug-addr :6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"routerless/internal/exp"
	"routerless/internal/obs"
	"routerless/internal/sim"
	"routerless/internal/stats"
	"routerless/internal/topo"
	"routerless/internal/traffic"
	"routerless/internal/viz"
)

func main() {
	topoPath := flag.String("topo", "", "routerless topology JSON (from nocgen)")
	meshN := flag.Int("mesh", 0, "simulate an NxN mesh instead of a routerless topology")
	delay := flag.Int("delay", 2, "mesh router pipeline delay (0|1|2)")
	pattern := flag.String("pattern", "uniform_random", "synthetic traffic pattern")
	app := flag.String("app", "", "PARSEC-like application model (overrides -pattern)")
	rates := flag.String("rates", "0.005,0.02,0.05,0.1", "comma-separated injection rates (flits/node/cycle)")
	warmup := flag.Int("warmup", 2000, "warm-up cycles")
	measure := flag.Int("measure", 10000, "measured cycles")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write the sweep as CSV to this path")
	progress := flag.Int("progress", 0, "print a progress line to stderr every N simulated cycles (0 = off)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "sweep points simulated in parallel (1 = sequential; output is identical either way)")
	tel := obs.NewSession(flag.CommandLine, "nocsim", "simulation")
	flag.Parse()
	// fatal ends the session first: os.Exit skips the deferred Close.
	fatal := func(err error) {
		tel.Close()
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
	rateList, p, profile, err := checkFlags(*meshN, *delay, *warmup, *measure, *jobs, *rates, *pattern, *app)
	if err != nil {
		fatal(err)
	}

	var mk func() sim.Network
	var rows, cols, linkBits int
	switch {
	case *meshN > 0:
		rows, cols, linkBits = *meshN, *meshN, 256
		mk = func() sim.Network { return sim.NewMesh(rows, cols, sim.MeshN(*delay)) }
	case *topoPath != "":
		data, err := os.ReadFile(*topoPath)
		if err != nil {
			fatal(err)
		}
		var t topo.Topology
		if err := json.Unmarshal(data, &t); err != nil {
			fatal(err)
		}
		if !t.FullyConnected() {
			fatal(fmt.Errorf("topology %s is not fully connected", *topoPath))
		}
		rows, cols, linkBits = t.Rows(), t.Cols(), 128
		mk = func() sim.Network { return sim.NewRing(&t, sim.DefaultRingConfig()) }
	default:
		fatal(fmt.Errorf("need -topo or -mesh"))
	}

	if err := tel.Start(); err != nil {
		fatal(err)
	}
	defer tel.Close()
	if manifest := tel.Manifest; manifest != nil {
		manifest.Seed = *seed
		manifest.Set("topo", *topoPath)
		manifest.Set("mesh", *meshN)
		manifest.Set("pattern", *pattern)
		manifest.Set("app", *app)
		manifest.Set("rates", *rates)
		manifest.Set("warmup", *warmup)
		manifest.Set("measure", *measure)
	}
	events := tel.Events
	cfg := sim.RunConfig{
		WarmupCycles: *warmup, MeasureCycles: *measure, DrainCycles: 2 * *measure,
		Metrics: tel.Registry, Events: events,
	}
	// progressFn builds a per-run progress callback; each parallel sweep
	// point gets its own (the prefix identifies whose line it is).
	progressFn := func(prefix string) func(sim.IntervalStats) {
		if *progress <= 0 {
			return nil
		}
		return func(s sim.IntervalStats) {
			// act is the number of loops (ring) or routers (mesh) the
			// sparse stepper is visiting — how sparse the run is.
			act := s.ActiveLoops
			if act < 0 {
				act = s.ActiveRouters
			}
			fmt.Fprintf(os.Stderr, "nocsim: %s%s cycle=%d inflight=%d thr=%.4f buf=%d act=%d\n",
				prefix, s.Phase, s.Cycle, s.InFlight, s.Throughput, s.BufferOccupancy, act)
		}
	}
	if *progress > 0 {
		cfg.ProbeEvery = *progress
	}

	// The profiles bracket only the simulation itself (both run paths),
	// not flag parsing or report printing.
	if err := tel.StartProfiles(); err != nil {
		fatal(err)
	}
	if *app != "" {
		src := traffic.NewAppInjector(profile, rows, cols, linkBits, *seed)
		cfg.OnInterval = progressFn("")
		cfg.Trace = tel.Tracer.Shard("sim.main")
		res := sim.Run(mk(), src, cfg)
		tel.StopProfiles()
		fmt.Printf("app=%s %v\n", profile.Name, res)
		if err := tel.Finish(); err != nil {
			fatal(err)
		}
		return
	}

	// The sweep points are independent (each builds its own network and
	// injector with the same seed), so fan them across -j workers; results
	// land by rate index and are printed/logged in order afterwards, so
	// stdout and the events JSONL are identical at any -j.
	results := exp.RunParallel(len(rateList), *jobs, tel.Registry, tel.Tracer, func(i int, sh *obs.TraceShard) sim.Result {
		r := rateList[i]
		c := cfg
		c.OnInterval = progressFn(fmt.Sprintf("rate=%.4f ", r))
		c.Trace = sh
		src := traffic.NewInjector(rows, cols, p, r, linkBits, *seed)
		return sim.Run(mk(), src, c)
	})
	tel.StopProfiles()
	var points []sim.SweepPoint
	fmt.Printf("%-10s %-10s %-12s %-10s %s\n", "rate", "latency", "throughput", "hops", "flags")
	for i, res := range results {
		r := rateList[i]
		points = append(points, sim.SweepPoint{Rate: r, Result: res})
		events.Info(obs.EventSweepPoint, map[string]any{
			"rate":        r,
			"avg_latency": res.AvgLatency,
			"p50_latency": res.LatencyP50,
			"p95_latency": res.LatencyP95,
			"p99_latency": res.LatencyP99,
			"throughput":  res.Throughput,
			"avg_hops":    res.AvgHops,
			"saturated":   res.Saturated,
		})
		flagStr := ""
		if res.Saturated {
			flagStr = "SATURATED"
		}
		fmt.Printf("%-10.4f %-10.2f %-12.4f %-10.2f %s\n",
			r, res.AvgLatency, res.Throughput, res.AvgHops, flagStr)
	}
	curve := sim.Curve(points)
	fmt.Printf("zero-load latency: %.2f cycles; saturation throughput: %.4f flits/node/cycle\n",
		stats.ZeroLoadLatency(curve), stats.SaturationThroughput(curve, 3))

	if *csvPath != "" {
		var rs, ls, ts []float64
		for _, p := range curve {
			rs = append(rs, p.InjectionRate)
			ls = append(ls, p.Latency)
			ts = append(ts, p.Throughput)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := viz.CurveCSV(f, rs, ls, ts); err != nil {
			fatal(err)
		}
		fmt.Printf("sweep written to %s\n", *csvPath)
	}
	if err := tel.Finish(); err != nil {
		fatal(err)
	}
}

// checkFlags rejects the flags the simulator cannot run with before
// anything is built, and returns the parsed -rates list, -pattern and
// -app (the pattern only when -app is empty, since -app overrides it). A
// mesh side is bounded like a topology file's (topo.MaxJSONSide), so
// -mesh cannot ask for a network too large to allocate. A node injects at
// most one flit per cycle, so a rate above 1 flit/node/cycle cannot be
// offered.
func checkFlags(meshN, delay, warmup, measure, jobs int, rates, pattern, app string) (list []float64, p traffic.Pattern, profile traffic.AppProfile, err error) {
	if meshN != 0 && (meshN < 2 || meshN > topo.MaxJSONSide) {
		return nil, p, profile, fmt.Errorf("-mesh %d out of range 2..%d", meshN, topo.MaxJSONSide)
	}
	if delay < 0 || delay > 2 {
		return nil, p, profile, fmt.Errorf("-delay %d out of range 0..2", delay)
	}
	if jobs < 1 {
		return nil, p, profile, fmt.Errorf("-j %d must be at least 1", jobs)
	}
	if warmup < 0 {
		return nil, p, profile, fmt.Errorf("-warmup %d is negative", warmup)
	}
	if measure < 1 {
		return nil, p, profile, fmt.Errorf("-measure %d must be at least 1", measure)
	}
	for _, rs := range strings.Split(rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(rs), 64)
		if err != nil {
			return nil, p, profile, fmt.Errorf("-rates: %v", err)
		}
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 || r > 1 {
			return nil, p, profile, fmt.Errorf("-rates: %v is not an injection rate in (0, 1] flits/node/cycle", r)
		}
		list = append(list, r)
	}
	if app != "" {
		profile, err = traffic.ParsecProfile(app)
	} else {
		p, err = traffic.ParsePattern(pattern)
	}
	if err != nil {
		return nil, p, profile, err
	}
	return list, p, profile, nil
}
