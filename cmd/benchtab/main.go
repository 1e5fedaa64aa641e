// Command benchtab regenerates the paper's tables and figures. Each
// experiment id matches the index in DESIGN.md/EXPERIMENTS.md.
//
// Usage:
//
//	benchtab -exp T3            # one experiment, quick budget
//	benchtab -exp all -full     # everything at full budgets (slow)
//	benchtab -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"routerless/internal/exp"
	"routerless/internal/obs"
	"routerless/internal/viz"
)

func main() {
	id := flag.String("exp", "all", "experiment id (T1..T5, F9..F16, S6.1, S6.7, S6.8, A, IMR, all)")
	full := flag.Bool("full", false, "use full (paper-scale) budgets instead of quick ones")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write the experiment rows as CSV to this path")
	list := flag.Bool("list", false, "list experiment ids")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulation points run in parallel per experiment (1 = sequential; reports are identical either way)")
	tel := obs.NewSession(flag.CommandLine, "benchtab", "experiment run")
	flag.Parse()

	if *list {
		fmt.Println("T1   Table 1: epsilon hyperparameter exploration (8x8)")
		fmt.Println("T2   Table 2: larger NoCs under node overlapping 18")
		fmt.Println("T3   Table 3: 8x8 wiring-resource sweep")
		fmt.Println("T4   Table 4: 10x10 wiring-resource sweep")
		fmt.Println("T5   Table 5: PARSEC execution time")
		fmt.Println("F9   Figure 9: generated 4x4 topology")
		fmt.Println("F10  Figure 10: synthetic latency/throughput, 10x10")
		fmt.Println("F11  Figure 11: PARSEC packet latency")
		fmt.Println("F12  Figure 12: PARSEC hop count")
		fmt.Println("F13  Figure 13: power-performance tradeoff")
		fmt.Println("F14  Figure 14: PARSEC power")
		fmt.Println("F15  Figure 15: area comparison")
		fmt.Println("F16  Figure 16: synthetic scaling")
		fmt.Println("S6.1 multi-threaded search efficacy")
		fmt.Println("S6.7 reliability / path diversity")
		fmt.Println("S6.8 broad applicability (3-D NoC, chiplet)")
		fmt.Println("A    framework ablations")
		fmt.Println("IMR  IMR GA baseline comparison")
		return
	}
	// fatal ends the session first: os.Exit skips the deferred Close.
	fatal := func(err error) {
		tel.Close()
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	if err := checkFlags(*id, *jobs); err != nil {
		fatal(err)
	}
	if err := tel.Start(); err != nil {
		fatal(err)
	}
	defer tel.Close()
	if manifest := tel.Manifest; manifest != nil {
		manifest.Seed = *seed
		manifest.Set("exp", *id)
		manifest.Set("full", *full)
		manifest.Set("jobs", *jobs)
	}

	// Bracket only the experiment run; report/CSV generation is excluded.
	if err := tel.StartProfiles(); err != nil {
		fatal(err)
	}
	o := exp.Options{Quick: !*full, Seed: *seed, Workers: *jobs, Metrics: tel.Registry, Events: tel.Events, Trace: tel.Tracer}
	if *id == "all" {
		rs := exp.All(o)
		tel.StopProfiles()
		for _, r := range rs {
			fmt.Println(r)
		}
		if err := tel.Finish(); err != nil {
			fatal(err)
		}
		return
	}
	r, err := exp.ByID(*id, o)
	tel.StopProfiles()
	if err != nil {
		fatal(err)
	}
	fmt.Println(r)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rows := append([][]string{r.Header}, r.Rows...)
		if err := viz.CSV(f, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("rows written to %s\n", *csvPath)
	}
	if err := tel.Finish(); err != nil {
		fatal(err)
	}
}

// checkFlags rejects an -exp that names no experiment and a -j below 1
// before any experiment starts.
func checkFlags(id string, jobs int) error {
	if jobs < 1 {
		return fmt.Errorf("-j %d must be at least 1", jobs)
	}
	if id != "all" && !exp.Known(id) {
		return fmt.Errorf("-exp %q is not an experiment id (see -list)", id)
	}
	return nil
}
