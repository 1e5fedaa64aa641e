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
	"slices"
	"strings"

	"routerless/internal/exp"
	"routerless/internal/obs"
	"routerless/internal/viz"
)

func main() {
	ids, lines := exp.Known()
	id := flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or all")
	full := flag.Bool("full", false, "use full (paper-scale) budgets instead of quick ones")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write the experiment rows as CSV to this path (one experiment only)")
	list := flag.Bool("list", false, "list experiment ids")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulation points run in parallel per experiment (1 = sequential; reports are identical either way)")
	tel := obs.NewSession(flag.CommandLine, "benchtab", "experiment run")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	// fatal ends the session first: os.Exit skips the deferred Close.
	fatal := func(err error) {
		tel.Close()
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	if err := checkFlags(*id, *jobs, *csvPath); err != nil {
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
	o := exp.Options{Quick: !*full, Seed: *seed, Workers: *jobs, Metrics: tel.Registry, Trace: tel.Tracer}
	var rs []*exp.Report
	if *id == "all" {
		rs = exp.All(o)
	} else if r, err := exp.ByID(*id, o); err == nil {
		rs = []*exp.Report{r}
	} else {
		fatal(err)
	}
	tel.StopProfiles()
	for _, r := range rs {
		fmt.Println(r)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rows := append([][]string{rs[0].Header}, rs[0].Rows...)
		if err := viz.CSV(f, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("rows written to %s\n", *csvPath)
	}
	if err := tel.Finish(); err != nil {
		fatal(err)
	}
}

// checkFlags rejects an -exp that names no experiment, a -j below 1 and a
// -csv with -exp all (the CSV holds one report's rows) before any
// experiment starts.
func checkFlags(id string, jobs int, csvPath string) error {
	if jobs < 1 {
		return fmt.Errorf("-j %d must be at least 1", jobs)
	}
	if id == "all" {
		if csvPath != "" {
			return fmt.Errorf("-csv needs one experiment, not -exp all")
		}
		return nil
	}
	if ids, _ := exp.Known(); !slices.Contains(ids, id) {
		return fmt.Errorf("-exp %q is not an experiment id (see -list)", id)
	}
	return nil
}
