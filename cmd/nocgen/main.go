// Command nocgen generates routerless NoC topologies with any of the three
// approaches the paper studies — REC recursive layering, the IMR genetic
// algorithm, or the DRL framework — plus the pure Algorithm-1 greedy
// heuristic, and writes them as JSON for nocsim.
//
// Usage:
//
//	nocgen -method drl -n 8 -cap 14 -episodes 40 -o design.json
//	nocgen -method rec -n 10 -o rec10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"routerless/internal/drl"
	"routerless/internal/imr"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/topo"
	"routerless/internal/viz"
)

func main() {
	method := flag.String("method", "drl", "generator: rec | imr | drl | greedy")
	n := flag.Int("n", 8, "NoC side length")
	cap := flag.Int("cap", 0, "node overlapping cap (default 2(n-1))")
	episodes := flag.Int("episodes", 30, "DRL exploration cycles")
	threads := flag.Int("threads", 1, "DRL learner threads")
	epsilon := flag.Float64("epsilon", 0.1, "DRL epsilon-greedy factor")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output JSON path (default stdout)")
	quiet := flag.Bool("q", false, "suppress the topology summary")
	flag.Parse()

	if err := checkFlags(*n, *cap, *episodes, *threads, *epsilon); err != nil {
		fmt.Fprintln(os.Stderr, "nocgen:", err)
		os.Exit(1)
	}
	overlap := *cap
	if overlap == 0 {
		overlap = 2 * (*n - 1)
	}

	var t *topo.Topology
	var err error
	switch *method {
	case "rec":
		t, err = rec.Generate(*n)
	case "imr":
		cfg := imr.DefaultConfig(*n)
		cfg.Seed = *seed
		cfg.OverlapCap = overlap
		t = imr.Run(cfg).Best.Topo
	case "greedy":
		env := rl.NewEnv(*n, overlap)
		rl.GreedyComplete(env)
		t = env.Topology()
	case "drl":
		cfg := drl.DefaultConfig(*n, overlap)
		cfg.Episodes = *episodes
		cfg.Threads = *threads
		cfg.Epsilon = *epsilon
		cfg.Seed = *seed
		var s *drl.Searcher
		s, err = drl.New(cfg)
		if err == nil {
			res := s.Run()
			if res.Best.Topo == nil {
				err = fmt.Errorf("no fully connected design in %d episodes", res.Episodes)
			} else {
				t = res.Best.Topo
				if !*quiet {
					fmt.Fprintf(os.Stderr, "found %d valid designs; best avg hops %.3f\n",
						len(res.Valid), res.Best.AvgHops)
				}
			}
		}
	default:
		err = fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocgen:", err)
		os.Exit(1)
	}

	if !*quiet {
		fmt.Fprint(os.Stderr, viz.TopologySummary(t))
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocgen:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nocgen:", err)
		os.Exit(1)
	}
}

// checkFlags rejects flags no method can run with before anything is
// built: a side outside 2..topo.MaxJSONSide (the largest grid nocsim
// -topo reads), a negative overlap cap (0 selects the default), and the
// DRL run settings drl.CheckRunFlags rejects.
func checkFlags(n, overlapCap, episodes, threads int, epsilon float64) error {
	if n < 2 || n > topo.MaxJSONSide {
		return fmt.Errorf("-n %d out of range 2..%d (the largest grid nocsim -topo reads)", n, topo.MaxJSONSide)
	}
	if overlapCap < 0 {
		return fmt.Errorf("-cap %d is negative", overlapCap)
	}
	return drl.CheckRunFlags(episodes, threads, epsilon)
}
