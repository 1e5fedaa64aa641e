package exp

import (
	"testing"

	"routerless/internal/obs"
	"routerless/internal/sim"
	"routerless/internal/traffic"
)

func TestRunParallelOrderAndWorkerCounters(t *testing.T) {
	reg := obs.NewRegistry()
	out := RunParallel(100, 8, reg, nil, func(i int, _ *obs.TraceShard) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	var points int64
	for name, v := range reg.Snapshot().Counters {
		if len(name) > 11 && name[:11] == "exp.worker." {
			points += v
		}
	}
	if points != 100 {
		t.Fatalf("worker point counters sum to %d, want 100", points)
	}
}

// TestRunParallelRecordsPointSpans: every point is one exp.point span,
// whatever the pool width, including widths above the point count.
func TestRunParallelRecordsPointSpans(t *testing.T) {
	for _, c := range []struct{ n, j int }{{1, 1}, {7, 1}, {7, 3}, {5, 8}} {
		tr := obs.NewTracer(64)
		RunParallel(c.n, c.j, nil, tr, func(i int, _ *obs.TraceShard) int { return i })
		var points int64
		for _, s := range tr.Aggregate() {
			if s.Kind == "exp.point" {
				points = s.Count
			}
		}
		if points != int64(c.n) {
			t.Fatalf("%d points on %d workers recorded %d exp.point spans", c.n, c.j, points)
		}
	}
}

// TestRunParallelSimsUnderRace exercises the worker pool with real
// simulations and a shared metrics registry; `make ci` runs this package
// under -race, so any sharing between worker networks or in the obs
// layer fails there.
func TestRunParallelSimsUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	nw := column("REC", 4, withMemo(testOpts))
	res := RunParallel(16, 8, reg, nil, func(i int, _ *obs.TraceShard) sim.Result {
		return nw.point(traffic.UniformRandom, 0.02+0.005*float64(i%4), testOpts)
	})
	for i, r := range res {
		if r.PacketsDone == 0 {
			t.Fatalf("job %d delivered nothing", i)
		}
	}
}

// TestSweepZeroLoadBaselineGuard: a first point that delivers no packets
// (AvgLatency 0) must not become the zero-load baseline — the old code
// froze zeroLoad at 0 and the `latency > 3*zeroLoad` test ended the
// sweep at the second point.
func TestSweepZeroLoadBaselineGuard(t *testing.T) {
	results := []sim.Result{
		{PacketsDone: 0, AvgLatency: 0},
		{PacketsDone: 50, AvgLatency: 20},
		{PacketsDone: 50, AvgLatency: 25},
		{PacketsDone: 50, AvgLatency: 90}, // > 3x the 20-cycle baseline
		{PacketsDone: 50, AvgLatency: 95},
	}
	run := func(rate float64) sim.Result { return results[int(rate)] }
	pts := sweep(run, []float64{0, 1, 2, 3, 4})
	if len(pts) != 4 {
		t.Fatalf("sweep kept %d points, want 4 (stop at the 3x-baseline point)", len(pts))
	}
	if pts[3].Result.AvgLatency != 90 {
		t.Fatalf("last point latency %.0f, want 90", pts[3].Result.AvgLatency)
	}
}

// TestSweepSaturatedFirstPointStops: saturation on the very first point
// ends the sweep immediately, after recording that point.
func TestSweepSaturatedFirstPointStops(t *testing.T) {
	run := func(rate float64) sim.Result {
		return sim.Result{PacketsDone: 10, AvgLatency: 500, Saturated: true}
	}
	if pts := sweep(run, []float64{0.1, 0.2, 0.3}); len(pts) != 1 {
		t.Fatalf("%d points, want 1", len(pts))
	}
}

// TestReportsParallelIdenticalToSequential is the end-to-end determinism
// smoke: a figure and a table rendered with 8 workers are byte-identical
// to the sequential rendering for the same seed. Each ByID call has its
// own memo, so the two renderings are independent computations.
func TestReportsParallelIdenticalToSequential(t *testing.T) {
	seqOpts := Options{Quick: true, Seed: 1, Workers: 1}
	parOpts := Options{Quick: true, Seed: 1, Workers: 8}
	for _, id := range []string{"F12", "T5"} {
		seq, _ := ByID(id, seqOpts)
		par, _ := ByID(id, parOpts)
		if seq.String() != par.String() {
			t.Fatalf("%s diverges with 8 workers:\n--- sequential\n%s\n--- parallel\n%s", id, seq, par)
		}
	}
}
