package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"routerless/internal/obs"
)

// qualityJobs is how many jobs every run completes, however long they take.
// quality_ratio and the digest come from these jobs only, so they depend on
// the seed alone and not on how many more jobs the host fits in the budget.
const qualityJobs = 5

// A job is one complete piece of user-visible work — a fixed-budget
// search, one simulation sweep, one pair of generic explorations — whose
// inputs its workload's setup has already built.
type job interface {
	// run does the timed work.
	run()
	// check verifies run's outputs and hashes them into h. A traced search
	// job also adds the counts its layer metrics divide by.
	check(h hash.Hash64) outcome
}

// outcome is what check found.
type outcome struct {
	ops     int      // episodes or simulation runs attempted
	failed  int      // ops whose outputs failed a check
	errs    []string // one line per failed check
	steps   float64  // units of work done, the step_us denominator
	quality float64  // design figure of merit over its baseline; lower is better
}

// A workload builds jobs from a seed, wired to tel's sinks when tel is not
// nil. Its setup time is setup_s.
type workload struct {
	name  string
	setup func(seed int64, tel *telemetry) (job, error)
}

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jobRow is one job of the detail record.
type jobRow struct {
	Seed    int64   `json:"seed"`
	Traced  bool    `json:"traced"`
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	Steps   float64 `json:"steps"`
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	Quality float64 `json:"quality"`
	AllocMB float64 `json:"alloc_mb"`
}

// report is the detail record; Summary is also printed alone.
type report struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Trace    bool          `json:"trace"`
	Digest   string        `json:"digest,omitempty"` // untraced runs only
	Claim    *string       `json:"claim"`            // the benchmark makes no performance claim
	Jobs     []jobRow      `json:"jobs"`
	Errors   []string      `json:"errors,omitempty"`
	Manifest *obs.Manifest `json:"manifest"`
	Summary  summary       `json:"summary"`
}

// jobSeed derives job j's seed from the run seed.
func jobSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// measure runs w's jobs one after another until the budget is spent. An
// untraced run runs at least qualityJobs jobs and reports the end-to-end
// metrics. A traced run runs each job twice on the same seed, untraced and
// traced; the pairs give the tracing overhead and the traced halves the
// per-layer metrics.
func measure(w workload, o options) (*report, error) {
	man := obs.NewManifest("bench")
	man.Seed = o.seed
	man.Set("workload", w.name)
	man.Set("seconds", o.seconds)
	man.Set("trace", o.trace)
	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Manifest: man}

	start := time.Now()
	more := func(j, least int) bool { return j < least || time.Since(start).Seconds() < o.seconds }
	// Job 0 warms the process: it pays the page faults of a heap that later
	// jobs reuse and fills lazily built tables. It is checked but not timed.
	var values map[string]float64
	if !o.trace {
		digest := fnv.New64a()
		var setups, stepUS, quality, alloc []float64
		for j := 0; more(j, qualityJobs); j++ {
			var h hash.Hash64 = digest
			if j >= qualityJobs {
				h = fnv.New64a() // outside the digest
			}
			row, out, err := runJob(w, jobSeed(o.seed, j), nil, h)
			if err != nil {
				return nil, err
			}
			rep.add(row, out)
			if j > 0 {
				setups = append(setups, row.SetupS)
				stepUS = append(stepUS, row.RunS*1e6/out.steps)
				alloc = append(alloc, row.AllocMB)
			}
			if j < qualityJobs {
				quality = append(quality, out.quality)
			}
		}
		rep.Digest = fmt.Sprintf("%016x", digest.Sum64())
		values = map[string]float64{
			"setup_s":       median(setups),
			"step_us":       median(stepUS),
			"quality_ratio": median(quality),
			"alloc_mb":      median(alloc),
		}
	} else {
		tel := newTelemetry()
		var overhead []float64
		for j := 0; more(j, 3); j++ {
			// The order within a pair alternates, so that neither half always
			// runs second.
			var runS [2]float64
			for k := 0; k < 2; k++ {
				traced := (j+k)%2 == 1
				var t *telemetry
				if traced {
					t = tel
				}
				row, out, err := runJob(w, jobSeed(o.seed, j), t, fnv.New64a())
				if err != nil {
					return nil, err
				}
				rep.add(row, out)
				if traced {
					runS[1] = row.RunS
				} else {
					runS[0] = row.RunS
				}
			}
			if j > 0 {
				overhead = append(overhead, runS[1]/runS[0]-1)
			}
		}
		var trace bytes.Buffer
		if err := tel.tracer.WriteTrace(&trace); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := os.WriteFile(o.traceOut, trace.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
		var err error
		if values, err = tel.layerMetrics(trace.Bytes(), median(overhead)); err != nil {
			return nil, err
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep.Summary.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		rep.Summary.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rep.Summary.Correct = rep.Summary.Failed == 0 && len(rep.Errors) == 0
	man.Finish(nil)
	return rep, nil
}

// setupRepeats is how many times runJob builds a job's inputs; the last
// build is the one that runs. Set-up takes milliseconds, so one sample per
// job would leave setup_s to a handful of noisy readings.
const setupRepeats = 3

// runJob sets one job up, runs it, and checks it. It first collects the
// previous job's garbage, so that no job pays for another's.
func runJob(w workload, seed int64, tel *telemetry, h hash.Hash64) (jobRow, outcome, error) {
	runtime.GC()
	var jb job
	var setups []float64
	var ms0 runtime.MemStats
	for i := 0; i < setupRepeats; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var err error
		if jb, err = w.setup(seed, tel); err != nil {
			return jobRow{}, outcome{}, fmt.Errorf("%s setup (seed %d): %w", w.name, seed, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t1 := time.Now()
	jb.run()
	t2 := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := jb.check(h)
	return jobRow{
		Seed:    seed,
		Traced:  tel != nil,
		SetupS:  median(setups),
		RunS:    t2.Sub(t1).Seconds(),
		Steps:   out.steps,
		Ops:     out.ops,
		Failed:  out.failed,
		Quality: out.quality,
		AllocMB: float64(ms.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
	}, out, nil
}

func (r *report) add(row jobRow, out outcome) {
	r.Jobs = append(r.Jobs, row)
	r.Errors = append(r.Errors, out.errs...)
	r.Summary.Attempted += out.ops
	r.Summary.Failed += out.failed
}

// median returns the middle of xs (the mean of the middle two for an even
// count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
