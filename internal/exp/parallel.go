package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"routerless/internal/obs"
	"routerless/internal/sim"
)

// This file is the parallel experiment harness. Experiment points —
// (topology, pattern, rate, seed) tuples — are independent: each one
// builds its own network and injector, so they fan out across worker
// goroutines with no shared mutable state (the freelist ownership rule:
// one packet pool per run, one network per worker — see DESIGN.md).
// Results are always placed by input index, so parallel output is
// byte-identical to sequential output for a fixed seed.

// jobs resolves the worker-pool width for these options: Workers when
// set, else GOMAXPROCS.
func (o Options) jobs() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunParallel evaluates fn(0..n-1) across up to j worker goroutines and
// returns the results in input order. fn must be safe for concurrent
// calls and deterministic per index (every experiment helper in this
// package is: each call constructs its own network and seeded injector).
// Each worker counts completed points into the registry's
// "exp.worker.<w>.points" counter and owns one trace shard
// ("exp.worker.<w>"), wrapping every point in an exp.point span. fn
// receives the worker's shard so the point's inner phases (e.g. sim.Run
// via RunConfig.Trace) nest under it. reg and tr may be nil.
func RunParallel[T any](n, j int, reg *obs.Registry, tr *obs.Tracer, fn func(i int, sh *obs.TraceShard) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	j = max(1, min(j, n))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("exp.worker.%d.points", w))
			sh := tr.Shard(fmt.Sprintf("exp.worker.%d", w))
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sp := sh.Start(obs.SpanExpPoint)
				out[i] = fn(i, sh)
				sp.End()
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// runAll evaluates independent simulation jobs across the options'
// worker pool, preserving input order. The figure/table generators use
// it to fan their cells out while keeping row order deterministic.
func runAll(o Options, jobs []func() sim.Result) []sim.Result {
	return RunParallel(len(jobs), o.jobs(), o.Metrics, o.Trace,
		func(i int, _ *obs.TraceShard) sim.Result { return jobs[i]() })
}
