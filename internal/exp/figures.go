package exp

import (
	"fmt"

	"routerless/internal/obs"
	"routerless/internal/power"
	"routerless/internal/rec"
	"routerless/internal/sim"
	"routerless/internal/traffic"
	"routerless/internal/viz"
)

// Figure9Topology reproduces Figure 9: a 4×4 topology generated by the
// DRL framework, rendered as a loop listing plus the overlap grid.
func Figure9Topology(o Options) *Report {
	t := DRLDesign(4, rec.MaxOverlap(4), o)
	r := &Report{
		ID:     "F9",
		Title:  "4x4 NoC topology generated by DRL",
		Header: []string{"metric", "value"},
		Notes: []string{
			"paper: symmetric 4x4 design replacing one inner loop with a larger loop, mixed directions",
		},
	}
	if t == nil {
		r.Add("status", "search failed")
		return r
	}
	r.Add("loops", fmt.Sprintf("%d", t.NumLoops()))
	r.Add("avg hops", f(avgHops(t)))
	r.Add("max overlap", fmt.Sprintf("%d", t.MaxOverlap()))
	r.Notes = append(r.Notes, "topology:\n"+viz.TopologySummary(t)+"overlap grid:\n"+viz.OverlapGrid(t))
	return r
}

// Figure10SyntheticLatency reproduces Figure 10: load-latency curves for
// synthetic workloads on a 10×10 NoC across Mesh-2, Mesh-1, REC and DRL,
// reporting zero-load latency and saturation throughput per pattern.
func Figure10SyntheticLatency(o Options) *Report {
	n := 10
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.BitComplement,
		traffic.BitRotation, traffic.Transpose}
	if !o.Quick {
		patterns = traffic.Patterns
	}
	r := &Report{
		ID:     "F10",
		Title:  "Synthetic workloads, 10x10: zero-load latency / saturation throughput",
		Header: []string{"pattern", "Mesh-2", "Mesh-1", "REC", "DRL"},
		Notes: []string{
			"paper (uniform): zero-load 26.85/19.24/11.67/9.89 cycles; throughput ~0.10/0.125/0.195/0.305",
			"cells are zeroLoad(cycles)/satThroughput(flits/node/cycle)",
		},
	}
	// Designs are resolved before the fan-out so workers only simulate
	// (concurrent cache misses would run duplicate searches).
	recT := RECDesign(n)
	drlT := DRLDesign(n, rec.MaxOverlap(n), o)
	rates := SweepRates(o)
	// One load-latency curve per (pattern, network) cell; the curves are
	// independent, so they spread across the worker pool.
	curves := make([]func(rate float64) sim.Result, 0, 4*len(patterns))
	for _, p := range patterns {
		curves = append(curves,
			func(rate float64) sim.Result { return MeshRun(n, 2, p, rate, o) },
			func(rate float64) sim.Result { return MeshRun(n, 1, p, rate, o) },
			func(rate float64) sim.Result { return RingRun(recT, p, rate, o) },
			func(rate float64) sim.Result { return RingRun(drlT, p, rate, o) },
		)
	}
	cells := RunParallel(len(curves), o.jobs(), o.Metrics, o.Trace, func(i int, _ *obs.TraceShard) string {
		pts := Sweep(curves[i], rates)
		return fmt.Sprintf("%.1f/%.3f", ZeroLoad(pts), SatThroughput(pts))
	})
	for i, p := range patterns {
		r.Add(p.String(), cells[4*i], cells[4*i+1], cells[4*i+2], cells[4*i+3])
	}
	return r
}

// Figure11ParsecLatency reproduces Figure 11: PARSEC packet latency on
// 4×4 and 8×8 NoCs for Mesh-2/1/0, REC and DRL.
func Figure11ParsecLatency(o Options) *Report {
	r := &Report{
		ID:     "F11",
		Title:  "PARSEC packet latency (cycles)",
		Header: []string{"size", "workload", "Mesh-2", "Mesh-1", "Mesh-0", "REC", "DRL"},
		Notes: []string{
			"paper averages: 4x4 DRL cuts latency 70.7/62.8/56.1/2.6% vs Mesh-2/1/0/REC; 8x8: 60.0/46.2/27.7/13.5%",
		},
	}
	// Five independent runs per (size, workload) row, fanned across the
	// worker pool; rows are emitted from the ordered result slice.
	type rowRef struct {
		size, name string
		base       int
	}
	var jobs []func() sim.Result
	var rows []rowRef
	for _, n := range []int{4, 8} {
		recT := RECDesign(n)
		drlT := DRLDesign(n, rec.MaxOverlap(n), o)
		for _, prof := range ParsecSuite(o) {
			rows = append(rows, rowRef{fmt.Sprintf("%dx%d", n, n), prof.Name, len(jobs)})
			jobs = append(jobs,
				func() sim.Result { return AppRunMesh(n, 2, prof, o) },
				func() sim.Result { return AppRunMesh(n, 1, prof, o) },
				func() sim.Result { return AppRunMesh(n, 0, prof, o) },
				func() sim.Result { return AppRun(recT, prof, o) },
				func() sim.Result { return AppRun(drlT, prof, o) })
		}
	}
	res := runAll(o, jobs)
	for _, row := range rows {
		r.Add(row.size, row.name,
			fmt.Sprintf("%.1f", res[row.base].AvgLatency),
			fmt.Sprintf("%.1f", res[row.base+1].AvgLatency),
			fmt.Sprintf("%.1f", res[row.base+2].AvgLatency),
			fmt.Sprintf("%.1f", res[row.base+3].AvgLatency),
			fmt.Sprintf("%.1f", res[row.base+4].AvgLatency))
	}
	return r
}

// Figure12ParsecHops reproduces Figure 12: PARSEC average hop count for
// Mesh-2, REC and DRL on 4×4 and 8×8 NoCs.
func Figure12ParsecHops(o Options) *Report {
	r := &Report{
		ID:     "F12",
		Title:  "PARSEC average hop count",
		Header: []string{"size", "workload", "Mesh", "REC", "DRL"},
		Notes: []string{
			"paper: 4x4 DRL 22.4% above mesh, 3.8% below REC; 8x8 DRL 35.7% above mesh, 13.7% below REC",
		},
	}
	type rowRef struct {
		size, name string
		base       int
	}
	var jobs []func() sim.Result
	var rows []rowRef
	for _, n := range []int{4, 8} {
		recT := RECDesign(n)
		drlT := DRLDesign(n, rec.MaxOverlap(n), o)
		for _, prof := range ParsecSuite(o) {
			rows = append(rows, rowRef{fmt.Sprintf("%dx%d", n, n), prof.Name, len(jobs)})
			jobs = append(jobs,
				func() sim.Result { return AppRunMesh(n, 2, prof, o) },
				func() sim.Result { return AppRun(recT, prof, o) },
				func() sim.Result { return AppRun(drlT, prof, o) })
		}
	}
	res := runAll(o, jobs)
	for _, row := range rows {
		r.Add(row.size, row.name,
			fmt.Sprintf("%.2f", res[row.base].AvgHops),
			fmt.Sprintf("%.2f", res[row.base+1].AvgHops),
			fmt.Sprintf("%.2f", res[row.base+2].AvgHops))
	}
	return r
}

// Figure13PowerPerf reproduces Figure 13: the 8×8 power/performance
// tradeoff — per-node power versus average hop count for DRL designs
// across node overlapping caps, with REC as a single point.
func Figure13PowerPerf(o Options) *Report {
	n := 8
	caps := []int{10, 14, 18}
	if !o.Quick {
		caps = []int{8, 10, 12, 14, 16, 18, 20}
	}
	r := &Report{
		ID:     "F13",
		Title:  "Power-performance tradeoff, 8x8 (per-node mW vs avg hops)",
		Header: []string{"design", "cap", "avg hops", "power (mW)"},
		Notes: []string{
			"paper: DRL@10 matches REC hops at 15.9% lower power; DRL@16 cuts hops 18.9% at equal power",
			"activity factor from uniform-random simulation at 0.05 flits/node/cycle",
		},
	}
	params := power.DefaultParams()
	activity := func(res sim.Result) power.Activity {
		return power.Activity{
			FlitHopsPerNodeCycle: res.Throughput * res.AvgHops,
			FlitsPerNodeCycle:    res.Throughput,
		}
	}
	recT := RECDesign(n)
	recRes := RingRun(recT, traffic.UniformRandom, 0.05, o)
	recPow := params.Routerless(rec.MaxOverlap(n), activity(recRes))
	r.Add("REC", fmt.Sprintf("%d", rec.MaxOverlap(n)), f(avgHops(recT)), f(recPow.Total()))
	for _, cap := range caps {
		t := DRLDesign(n, cap, o)
		if t == nil || !t.FullyConnected() {
			r.Add("DRL", fmt.Sprintf("%d", cap), "N/A", "N/A")
			continue
		}
		res := RingRun(t, traffic.UniformRandom, 0.05, o)
		pow := params.Routerless(cap, activity(res))
		r.Add("DRL", fmt.Sprintf("%d", cap), f(avgHops(t)), f(pow.Total()))
	}
	return r
}

// Figure14ParsecPower reproduces Figure 14: per-node static and dynamic
// power across PARSEC workloads for Mesh-2, REC and DRL (both at cap 14).
func Figure14ParsecPower(o Options) *Report {
	n := 8
	r := &Report{
		ID:     "F14",
		Title:  "PARSEC power consumption (per-node mW, static+dynamic)",
		Header: []string{"workload", "Mesh", "REC", "DRL"},
		Notes: []string{
			"paper: static 1.23 (mesh) vs 0.23 (REC/DRL); DRL dynamic 80.8% below mesh, 11.7% below REC",
			"cells are static+dynamic=total",
		},
	}
	params := power.DefaultParams()
	recT := RECDesign(n)
	drlT := DRLDesign(n, rec.MaxOverlap(n), o)
	cell := func(rep power.Report) string {
		return fmt.Sprintf("%.2f+%.2f=%.2f", rep.Static, rep.Dynamic, rep.Total())
	}
	act := func(res sim.Result) power.Activity {
		return power.Activity{
			FlitHopsPerNodeCycle: res.Throughput * res.AvgHops,
			FlitsPerNodeCycle:    res.Throughput,
		}
	}
	suite := ParsecSuite(o)
	var jobs []func() sim.Result
	for _, prof := range suite {
		jobs = append(jobs,
			func() sim.Result { return AppRunMesh(n, 2, prof, o) },
			func() sim.Result { return AppRun(recT, prof, o) },
			func() sim.Result { return AppRun(drlT, prof, o) })
	}
	res := runAll(o, jobs)
	for i, prof := range suite {
		r.Add(prof.Name,
			cell(params.Mesh(act(res[3*i]))),
			cell(params.Routerless(rec.MaxOverlap(n), act(res[3*i+1]))),
			cell(params.Routerless(rec.MaxOverlap(n), act(res[3*i+2]))))
	}
	return r
}

// Figure15Area reproduces Figure 15: node area after P&R for Mesh,
// REC/DRL at overlapping 14, and DRL at overlapping 10.
func Figure15Area(o Options) *Report {
	params := power.DefaultParams()
	r := &Report{
		ID:     "F15",
		Title:  "Node area comparison (µm², post-P&R model)",
		Header: []string{"design", "node area", "repeaters"},
		Notes: []string{
			"paper: mesh 45278, REC/DRL(14) 7981, DRL(10) 5860; repeaters 0.159mm²/64 nodes for DRL(14)",
		},
	}
	r.Add("Mesh-2", f(params.MeshNodeArea()), "0")
	r.Add("REC/DRL (overlap 14)", f(params.RouterlessNodeArea(14)), f(params.RouterlessRepeaterArea(14)))
	r.Add("DRL (overlap 10)", f(params.RouterlessNodeArea(10)), f(params.RouterlessRepeaterArea(10)))
	return r
}

// Figure16Scaling reproduces Figure 16: uniform-random scaling from 4×4
// to 10×10 — saturation throughput per size and the relative drop, the
// paper's headline scalability result (REC −31.6% vs DRL −4.7%).
func Figure16Scaling(o Options) *Report {
	sizes := []int{4, 8, 10}
	if !o.Quick {
		sizes = []int{4, 6, 8, 10}
	}
	r := &Report{
		ID:     "F16",
		Title:  "Synthetic scaling, uniform random: saturation throughput",
		Header: []string{"size", "Mesh-2", "REC", "DRL"},
		Notes: []string{
			"paper: REC drops 0.285 -> 0.195 (-31.6%) from 4x4 to 10x10; DRL only 0.32 -> 0.305 (-4.7%)",
		},
	}
	rates := SweepRates(o)
	// Three saturation sweeps per size, all independent; the searches run
	// up front (sequentially, sharing the design cache), the sweeps fan
	// out, one curve per worker.
	var curves []func(rate float64) sim.Result
	for _, n := range sizes {
		recT := RECDesign(n)
		drlT := DRLDesign(n, rec.MaxOverlap(n), o)
		curves = append(curves,
			func(rate float64) sim.Result { return MeshRun(n, 2, traffic.UniformRandom, rate, o) },
			func(rate float64) sim.Result { return RingRun(recT, traffic.UniformRandom, rate, o) },
			func(rate float64) sim.Result { return RingRun(drlT, traffic.UniformRandom, rate, o) })
	}
	sat := RunParallel(len(curves), o.jobs(), o.Metrics, o.Trace, func(i int, _ *obs.TraceShard) float64 {
		return SatThroughput(Sweep(curves[i], rates))
	})
	var recFirst, recLast, drlFirst, drlLast float64
	for i, n := range sizes {
		mesh, recS, drlS := sat[3*i], sat[3*i+1], sat[3*i+2]
		if i == 0 {
			recFirst, drlFirst = recS, drlS
		}
		recLast, drlLast = recS, drlS
		r.Add(fmt.Sprintf("%dx%d", n, n), f(mesh), f(recS), f(drlS))
	}
	if recFirst > 0 && drlFirst > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"measured drop %dx%d -> %dx%d: REC %.1f%%, DRL %.1f%%",
			sizes[0], sizes[0], sizes[len(sizes)-1], sizes[len(sizes)-1],
			100*(recFirst-recLast)/recFirst, 100*(drlFirst-drlLast)/drlFirst))
	}
	return r
}
