package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"routerless/internal/rec"
	"routerless/internal/sim"
	"routerless/internal/traffic"
)

// tinyWorkloads mirrors workloads with budgets small enough for a unit
// test; every other setting is the same runner's.
var tinyWorkloads = []workload{
	searchWorkload("search-8x8", searchSpec{n: 8, cap: 14, episodes: 1}),
	searchWorkload("search-10x10-broker", searchSpec{n: 10, cap: 18, episodes: 1, inferBatch: 8}),
	synthWorkload("sim-synthetic-10x10", synthSpec{
		n:        10,
		patterns: []traffic.Pattern{traffic.UniformRandom},
		rates:    []float64{0.02, 0.3},
		run:      sim.RunConfig{WarmupCycles: 50, MeasureCycles: 300, DrainCycles: 600},
	}),
	parsecWorkload("sim-parsec-8x8", parsecSpec{
		n:   8,
		run: sim.RunConfig{WarmupCycles: 100, MeasureCycles: 3000, DrainCycles: 3000},
	}),
	exploreWorkload("explore-generic", exploreSpec{n: 6, layers: 2, episodes: 3}),
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMatchesProgram pins BENCHMARK.json to the program: the same
// workloads, and the same metric names and units in the same order.
func TestDeclaredMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if got, want := workloadNames(), names; !slices.Equal(got, want) {
		t.Errorf("program workloads %v, BENCHMARK.json %v", got, want)
	}
	for i, w := range tinyWorkloads {
		if w.name != workloads[i].name {
			t.Errorf("tiny workload %d is %s, want %s", i, w.name, workloads[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range d.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer %v, program %v", layers, perLayer)
	}
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > d.EndToEnd[0].Bound || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: better %q, bound %g; want lower or higher, a bound in (0, 0.25] and none above setup_s's", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range d.PerLayer {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	seen := map[string]bool{}
	for _, n := range append(names, metricNames(append(e2e, layers...))...) {
		if !validName.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

// TestWorkloadsTiny runs every workload untraced and traced and checks
// that each declared metric comes out finite and correctly unit-tagged,
// with every output check passing.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				runTiny(t, w, traced)
			})
		}
	}
}

func runTiny(t *testing.T, w workload, traced bool) {
	o := options{seed: 1, trace: traced}
	defs := endToEnd
	if traced {
		o.traceOut = filepath.Join(t.TempDir(), "trace.json")
		defs = perLayer
	}
	rep, err := measure(w, o)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d errors=%v", s.Correct, s.Attempted, s.Failed, rep.Errors)
	}
	if len(s.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := s.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v, want a finite value in %s", d.name, m, d.unit)
		}
	}
	if traced {
		if _, err := os.Stat(o.traceOut); err != nil {
			t.Errorf("no Chrome trace: %v", err)
		}
	}
}

// TestDigestRepeats checks that a seed fixes the outputs.
func TestDigestRepeats(t *testing.T) {
	t.Parallel()
	w := tinyWorkloads[0]
	a, err := measure(w, options{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(w, options{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Summary.Metrics["quality_ratio"] != b.Summary.Metrics["quality_ratio"] {
		t.Errorf("seed 3 gave digests %s and %s", a.Digest, b.Digest)
	}
}

// TestChecksCatchCorruption feeds the output checks outputs that are
// wrong in one field each.
func TestChecksCatchCorruption(t *testing.T) {
	design := rec.MustGenerate(6)
	hops, _ := design.AverageHops()
	if err := checkDesign(design, rec.MaxOverlap(6), hops); err != nil {
		t.Fatalf("REC 6x6 rejected: %v", err)
	}
	if checkDesign(design, rec.MaxOverlap(6), hops+1e-6) == nil {
		t.Error("wrong average hops accepted")
	}
	if checkDesign(design, rec.MaxOverlap(6)-1, hops) == nil {
		t.Error("overlap above the cap accepted")
	}

	cfg := sim.RunConfig{MeasureCycles: 100}
	good := sim.Result{Cycles: 100, PacketsSent: 10, PacketsDone: 10, AvgLatency: 9, AvgHops: 4}
	if err := checkResult(good, cfg); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, bad := range map[string]func(*sim.Result){
		"lost packets":       func(r *sim.Result) { r.PacketsDone = 9 },
		"extra packets":      func(r *sim.Result) { r.PacketsDone = 11 },
		"latency below hops": func(r *sim.Result) { r.AvgLatency = 3 },
		"nothing injected":   func(r *sim.Result) { r.PacketsSent, r.PacketsDone = 0, 0 },
		"wrong cycle window": func(r *sim.Result) { r.Cycles = 99 },
	} {
		r := good
		bad(&r)
		if checkResult(r, cfg) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}
