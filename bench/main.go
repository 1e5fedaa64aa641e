// Command bench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget through the same public entry points the CLIs
// use, checks every output, and prints as its last line one JSON object:
// the end-to-end metrics of BENCHMARK.json, or with -trace 1 the per-layer
// metrics of a separate traced run.
//
//	bash bench/run.sh --workload search-8x8 --seed 1 --seconds 15 --trace 0
//
// The line before it is a detail record: run provenance, one row per job,
// the output digest and the (always null) performance claim. README.md
// describes the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "wall-clock measurement budget in seconds")
	traced := flag.Int("trace", 0, "0 = untraced run reporting end-to-end metrics; 1 = traced run reporting per-layer metrics")
	out := flag.String("o", "", "also write the detail record, with the summary, as JSON to this path")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the Chrome trace of the traced jobs to this path")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	rep, err := measure(w, options{seed: *seed, seconds: *seconds, trace: *traced == 1, traceOut: *traceOut})
	if err != nil {
		fatal(err)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench: check failed:", e)
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(detail, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	summary, err := json.Marshal(rep.Summary)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n%s\n", detail, summary)
	if !rep.Summary.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
