// Command nocexplore runs long-form DRL design-space searches with full
// control over the framework's hyperparameters (ε, exploration constant,
// threads, DNN width) and reports every valid design found — the
// interactive counterpart of Table 1's hyperparameter study.
//
// Usage:
//
//	nocexplore -n 8 -cap 14 -episodes 200 -threads 4 -epsilon 0.1
//	nocexplore -n 8 -episodes 500 -metrics search.json -events search.jsonl
//	nocexplore -n 8 -episodes 200 -cpuprofile search.pprof
//	nocexplore -n 8 -episodes 200 -threads 4 -infer-batch 8
//
// -infer-batch routes DNN evaluations through one shared evaluator that
// batches concurrent learners' requests; a batch never holds more than
// -threads requests, since each learner waits on at most one.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"routerless/internal/drl"
	"routerless/internal/nn"
	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/stats"
	"routerless/internal/viz"
)

func main() {
	n := flag.Int("n", 8, "NoC side length")
	cap := flag.Int("cap", 0, "node overlapping cap (default 2(n-1))")
	episodes := flag.Int("episodes", 100, "exploration cycles")
	threads := flag.Int("threads", 1, "learner threads (§4.6)")
	inferBatch := flag.Int("infer-batch", 0, "route DNN evaluations through the shared batched-inference broker with this max batch size, capped at -threads (0 = per-worker forwards)")
	epsilon := flag.Float64("epsilon", 0.1, "ε-greedy factor")
	cpuct := flag.Float64("c", 1.5, "MCTS exploration constant")
	lr := flag.Float64("lr", 1e-3, "learning rate")
	seed := flag.Int64("seed", 1, "random seed")
	fullDNN := flag.Bool("full-dnn", false, "use the paper's full-width network")
	noDNN := flag.Bool("no-dnn", false, "ablation: disable the DNN")
	noMCTS := flag.Bool("no-mcts", false, "ablation: disable the search tree")
	saveModel := flag.String("save-model", "", "write the trained policy/value model to this path")
	loadModel := flag.String("load-model", "", "warm-start from a model saved by -save-model")
	verbose := flag.Bool("v", false, "print every valid design")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot as JSON to this path at exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while running")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the search to this file (offline alternative to -debug-addr's /debug/pprof/)")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention pprof profile of the search to this file (which locks learners waited on)")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking pprof profile of the search to this file")
	eventsPath := flag.String("events", "", "write structured JSONL run events to this path")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the search (load in Perfetto) to this path")
	manifestPath := flag.String("manifest", "", "append a JSONL run-provenance manifest (config, seed, git rev, wall time, metrics) to this path")
	progress := flag.Duration("progress", 10*time.Second, "interval between progress lines on stderr (0 = off)")
	flag.Parse()
	if err := checkFlags(*episodes, *threads, *inferBatch, *epsilon, *lr, *cpuct); err != nil {
		fmt.Fprintln(os.Stderr, "nocexplore:", err)
		os.Exit(1)
	}

	var reg *obs.Registry
	if *metricsPath != "" || *debugAddr != "" || *manifestPath != "" {
		reg = obs.NewRegistry()
	}
	var events *obs.Logger
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		events = obs.NewLogger(f, obs.LevelDebug)
		// Close flushes buffered events and the file even on the os.Exit
		// paths below (which skip defers), so it is also called explicitly
		// before each of them.
		defer events.Close()
	}
	var tracer *obs.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	if *debugAddr != "" {
		d, err := obs.StartDebug(*debugAddr, reg, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "nocexplore: debug endpoint on http://%s\n", d.Addr)
	}

	overlap := *cap
	if overlap == 0 {
		overlap = 2 * (*n - 1)
	}
	cfg := drl.DefaultConfig(*n, overlap)
	cfg.Episodes = *episodes
	cfg.Threads = *threads
	cfg.InferBatch = *inferBatch
	cfg.Epsilon = *epsilon
	cfg.CPuct = *cpuct
	cfg.LR = *lr
	cfg.Seed = *seed
	cfg.UseDNN = !*noDNN
	cfg.UseMCTS = !*noMCTS
	if *fullDNN {
		cfg.NN = nn.DefaultConfig(*n)
	}
	if *loadModel != "" {
		data, err := os.ReadFile(*loadModel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		net, err := nn.UnmarshalModel(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		cfg.NN = net.Cfg
		cfg.InitWeights = net.GetWeights()
	}

	cfg.Metrics = reg
	cfg.Events = events
	cfg.Trace = tracer

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("nocexplore")
		manifest.Seed = *seed
		manifest.Set("n", *n)
		manifest.Set("cap", overlap)
		manifest.Set("episodes", *episodes)
		manifest.Set("threads", *threads)
		manifest.Set("infer_batch", *inferBatch)
		manifest.Set("epsilon", *epsilon)
		manifest.Set("cpuct", *cpuct)
		manifest.Set("lr", *lr)
		manifest.Set("use_dnn", cfg.UseDNN)
		manifest.Set("use_mcts", cfg.UseMCTS)
	}

	s, err := drl.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocexplore:", err)
		os.Exit(1)
	}
	if *progress > 0 {
		done := make(chan struct{})
		defer close(done)
		go func() {
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					ep, valid := s.Progress()
					fmt.Fprintf(os.Stderr, "nocexplore: progress %d/%d episodes, %d valid designs\n",
						ep, *episodes, valid)
					if line := tracer.SummaryLine(4); line != "" {
						fmt.Fprintf(os.Stderr, "nocexplore: %s\n", line)
					}
				}
			}
		}()
	}
	// The profile brackets exactly the search (not flag parsing or report
	// generation) and is stopped explicitly: the no-valid-design path exits
	// with os.Exit, which would skip a deferred stop.
	stopProfile := func() {}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		stopProfile = stop
	}
	// Contention profiles share the search bracket: they answer which locks
	// the learner goroutines queued on (mutex) and where goroutines blocked
	// (block) during exactly the profiled search.
	stopContention, err := obs.StartContentionProfiles(*mutexProfile, *blockProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocexplore:", err)
		os.Exit(1)
	}
	res := s.Run()
	stopProfile()
	if err := stopContention(); err != nil {
		fmt.Fprintln(os.Stderr, "nocexplore:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		fmt.Fprintf(os.Stderr, "nocexplore: cpu profile written to %s\n", *cpuProfile)
	}
	if *mutexProfile != "" {
		fmt.Fprintf(os.Stderr, "nocexplore: mutex profile written to %s\n", *mutexProfile)
	}
	if *blockProfile != "" {
		fmt.Fprintf(os.Stderr, "nocexplore: block profile written to %s\n", *blockProfile)
	}

	// The trace is exported only after Run returns, when every worker
	// shard has quiesced (WriteTrace's safety requirement).
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		err = tracer.WriteTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore: write trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nocexplore: trace written to %s\n", *tracePath)
	}
	if tracer != nil && *progress > 0 {
		if table := tracer.AggregateTable(); table != "" {
			fmt.Fprint(os.Stderr, table)
		}
	}
	if manifest != nil {
		manifest.Finish(reg)
		if err := manifest.AppendFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore: write manifest:", err)
		}
	}

	writeMetrics := func() {
		if *metricsPath == "" {
			return
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *metricsPath)
	}

	if *saveModel != "" && cfg.UseDNN {
		net := nn.NewPolicyValueNet(cfg.NN, cfg.Seed)
		net.SetWeights(s.ModelWeights())
		data, err := nn.MarshalModel(net)
		if err == nil {
			err = os.WriteFile(*saveModel, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore: save model:", err)
			events.Close() // os.Exit skips the deferred Close
			os.Exit(1)
		}
		events.Info(obs.EventCheckpoint, map[string]any{
			"path":     *saveModel,
			"episodes": res.Episodes,
		})
		fmt.Printf("model saved to %s\n", *saveModel)
	}

	fmt.Printf("episodes: %d   tree states: %d   valid designs: %d\n",
		res.Episodes, res.TreeSize, len(res.Valid))
	writeMetrics()
	if len(res.Valid) == 0 {
		fmt.Println("no fully connected design found; increase -episodes or relax -cap")
		events.Close() // os.Exit skips the deferred Close
		os.Exit(2)
	}
	hops := make([]float64, len(res.Valid))
	for i, d := range res.Valid {
		hops[i] = d.AvgHops
		if *verbose {
			fmt.Printf("  episode %3d: %d loops, avg hops %.3f\n", d.Episode, d.Loops, d.AvgHops)
		}
	}
	fmt.Printf("hop count: min %.3f  mean %.3f  SD %.4f\n",
		stats.Min(hops), stats.Mean(hops), stats.StdDev(hops))
	if recT, err := rec.Generate(*n); err == nil && overlap >= rec.MaxOverlap(*n) {
		recHops, _ := recT.AverageHops()
		fmt.Printf("REC reference: %.3f avg hops (%d loops) -> improvement %.1f%%\n",
			recHops, recT.NumLoops(), 100*(recHops-res.Best.AvgHops)/recHops)
	}
	fmt.Println()
	fmt.Print(viz.TopologySummary(res.Best.Topo))
	fmt.Println("node overlapping:")
	fmt.Print(viz.OverlapGrid(res.Best.Topo))
}

// checkFlags rejects the numeric flags the search cannot run with before
// anything is built: fewer than one episode or learner thread, a negative
// inference batch, an ε outside [0, 1], a learning rate that is not a
// positive finite number, and a negative or non-finite exploration
// constant.
func checkFlags(episodes, threads, inferBatch int, epsilon, lr, cpuct float64) error {
	if err := drl.CheckRunFlags(episodes, threads, epsilon); err != nil {
		return err
	}
	if inferBatch < 0 {
		return fmt.Errorf("-infer-batch %d must not be negative", inferBatch)
	}
	if math.IsNaN(lr) || math.IsInf(lr, 0) || lr <= 0 {
		return fmt.Errorf("-lr %v is not a positive finite learning rate", lr)
	}
	if math.IsNaN(cpuct) || math.IsInf(cpuct, 0) || cpuct < 0 {
		return fmt.Errorf("-c %v is not a finite non-negative exploration constant", cpuct)
	}
	return nil
}
