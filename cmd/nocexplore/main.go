// Command nocexplore runs long-form DRL design-space searches with full
// control over the framework's hyperparameters (ε, exploration constant,
// threads, DNN width) and reports every valid design found — the
// interactive counterpart of Table 1's hyperparameter study.
//
// Usage:
//
//	nocexplore -n 8 -cap 14 -episodes 200 -threads 4 -epsilon 0.1
//	nocexplore -n 8 -episodes 500 -metrics search.json -manifest runs.jsonl
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
	progress := flag.Duration("progress", 10*time.Second, "interval between progress lines on stderr (0 = off)")
	tel := obs.NewSession(flag.CommandLine, "nocexplore", "search")
	flag.Parse()
	// exit ends the session first: os.Exit skips the deferred Close.
	exit := func(code int, err error) {
		tel.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocexplore:", err)
		}
		os.Exit(code)
	}
	if err := checkFlags(*episodes, *threads, *inferBatch, *epsilon, *lr, *cpuct); err != nil {
		exit(1, err)
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
			exit(1, err)
		}
		net, err := nn.UnmarshalModel(data)
		if err != nil {
			exit(1, err)
		}
		cfg.NN = net.Cfg
		cfg.Init = net
	}
	// Reject what drl.New would before Start creates any output file.
	if err := drl.CheckConfig(cfg); err != nil {
		exit(1, err)
	}

	if err := tel.Start(); err != nil {
		exit(1, err)
	}
	defer tel.Close()
	cfg.Metrics = tel.Registry
	cfg.Trace = tel.Tracer
	if manifest := tel.Manifest; manifest != nil {
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
		exit(1, err)
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
					if line := tel.Tracer.SummaryLine(4); line != "" {
						fmt.Fprintf(os.Stderr, "nocexplore: %s\n", line)
					}
				}
			}
		}()
	}
	// The profiles bracket exactly the search (not flag parsing or report
	// generation): the mutex and block profiles answer which locks the
	// learner goroutines queued on and where goroutines blocked.
	if err := tel.StartProfiles(); err != nil {
		exit(1, err)
	}
	res := s.Run()
	tel.StopProfiles()
	if tel.Manifest != nil {
		tel.Manifest.BestHopsCurve = res.BestHopsCurve()
	}
	if table := tel.Tracer.AggregateTable(); table != "" && *progress > 0 {
		fmt.Fprint(os.Stderr, table)
	}

	if *saveModel != "" && cfg.UseDNN {
		data, err := nn.MarshalModel(s.Model())
		if err == nil {
			err = os.WriteFile(*saveModel, data, 0o644)
		}
		if err != nil {
			exit(1, fmt.Errorf("save model: %w", err))
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}

	fmt.Printf("episodes: %d   tree states: %d   valid designs: %d\n",
		res.Episodes, res.TreeSize, len(res.Valid))
	// The run has quiesced, so the trace can be written; a telemetry
	// failure fails the run once the report is out.
	finishErr := tel.Finish()
	if len(res.Valid) == 0 {
		fmt.Println("no fully connected design found; increase -episodes or relax -cap")
		if finishErr != nil {
			exit(1, finishErr)
		}
		exit(2, nil)
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
	if finishErr != nil {
		exit(1, finishErr)
	}
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
