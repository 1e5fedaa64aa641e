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
	metricsPath := flag.String("metrics", "", "write a metrics snapshot as JSON to this path at exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while running")
	eventsPath := flag.String("events", "", "write structured JSONL run events to this path")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the experiment run (load in Perfetto) to this path")
	manifestPath := flag.String("manifest", "", "append a JSONL run-provenance manifest to this path")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulation points run in parallel per experiment (1 = sequential; reports are identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention pprof profile of the experiment run to this file")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking pprof profile of the experiment run to this file")
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
	if err := checkFlags(*id, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
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
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		events = obs.NewLogger(f, obs.LevelDebug)
		// Close flushes buffered events and closes the file on exit.
		defer events.Close()
	}
	var tracer *obs.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	if *debugAddr != "" {
		d, err := obs.StartDebug(*debugAddr, reg, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "benchtab: debug endpoint on http://%s\n", d.Addr)
	}
	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("benchtab")
		manifest.Seed = *seed
		manifest.Set("exp", *id)
		manifest.Set("full", *full)
		manifest.Set("jobs", *jobs)
	}
	// finishRun exports the trace (only after every experiment worker has
	// quiesced) and appends the provenance manifest.
	finishRun := func() {
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			err = tracer.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: write trace:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchtab: trace written to %s\n", *tracePath)
		}
		if manifest != nil {
			manifest.Finish(reg)
			if err := manifest.AppendFile(*manifestPath); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: write manifest:", err)
			}
		}
	}
	writeMetrics := func() {
		if *metricsPath == "" {
			return
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *metricsPath)
	}

	// Bracket only the experiment run; report/CSV generation is excluded.
	stopProfile := func() {}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		stopProfile = stop
	}
	// Contention profiles share the bracket; the combined stop keeps both
	// run paths below to a single call.
	if *mutexProfile != "" || *blockProfile != "" {
		stopContention, err := obs.StartContentionProfiles(*mutexProfile, *blockProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		stopCPU := stopProfile
		stopProfile = func() {
			stopCPU()
			if err := stopContention(); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
		}
	}
	o := exp.Options{Quick: !*full, Seed: *seed, Workers: *jobs, Metrics: reg, Events: events, Trace: tracer}
	if *id == "all" {
		rs := exp.All(o)
		stopProfile()
		finishRun()
		for _, r := range rs {
			fmt.Println(r)
		}
		writeMetrics()
		return
	}
	r, err := exp.ByID(*id, o)
	stopProfile()
	finishRun()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	fmt.Println(r)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		defer f.Close()
		rows := append([][]string{r.Header}, r.Rows...)
		if err := viz.CSV(f, rows); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		fmt.Printf("rows written to %s\n", *csvPath)
	}
	writeMetrics()
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
