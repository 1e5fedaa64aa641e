package exp

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routerless/internal/sim"
	"routerless/internal/topo"
	"routerless/internal/traffic"
)

var testOpts = Options{Quick: true, Seed: 1}

func TestReportString(t *testing.T) {
	r := &Report{ID: "X", Title: "demo", Header: []string{"a", "b"}}
	r.Add("1", "2")
	r.Notes = append(r.Notes, "hello")
	s := r.String()
	for _, want := range []string{"X", "demo", "a", "1", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

// withMemo returns o with a memo of its own, as All and ByID give it.
func withMemo(o Options) Options {
	o.runs = newMemo()
	return o
}

// TestDesignCachesAndFallbacks: one memo builds each design once per
// size and cap, and the DRL design is connected, through a fallback when
// the search finds none.
func TestDesignCachesAndFallbacks(t *testing.T) {
	o := withMemo(testOpts)
	a := drlDesign(4, 6, o)
	if a != drlDesign(4, 6, o) {
		t.Fatal("memo miss on identical design key")
	}
	if a == nil || !a.FullyConnected() {
		t.Fatal("memoized design invalid")
	}
	if recDesign(4, o) != recDesign(4, o) {
		t.Fatal("REC design built twice")
	}
	if imrDesign(4, o) == nil {
		t.Fatal("IMR design nil")
	}
	// The keys hold the size: under one cap, a 3×3 design is not the
	// 4×4 one.
	for _, d := range []*topo.Topology{drlDesign(3, 6, o), recDesign(3, o), imrDesign(3, o)} {
		if d == nil || d.Rows() != 3 {
			t.Fatal("3x3 design missing or read from another size")
		}
	}
	// And the cap: the 4×4 design under cap 8 is not the one under 6.
	if got, want := avgHops(drlDesign(4, 8, o)), avgHops(drlDesign(4, 8, withMemo(testOpts))); got != want {
		t.Fatalf("memoized 4x4 cap-8 design has %v hops, a fresh one %v", got, want)
	}
}

// TestMemoBuildsOnceUnderConcurrency: goroutines that ask for one key at
// once share a single build, and get its value; `make ci` runs this
// under -race.
func TestMemoBuildsOnceUnderConcurrency(t *testing.T) {
	o := withMemo(testOpts)
	var builds atomic.Int32
	vals := make([]*int, 16)
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i] = memoize(o, "k", func() *int {
				builds.Add(1)
				time.Sleep(10 * time.Millisecond)
				return new(int)
			})
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds of one key, want 1", n)
	}
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("caller %d got another value", i)
		}
	}
}

// TestConcurrentSearchesMatchAlone: DRL searches that two workers run at
// once, as a fan-out over sizes does when no design is memoized yet, find
// what each finds alone; `make ci` runs this under -race.
func TestConcurrentSearchesMatchAlone(t *testing.T) {
	o := withMemo(Options{Quick: true, Seed: 1, Workers: 2})
	hops := grid(o, 2, 1, func(i, _ int) float64 { return avgHops(drlDesign(3+i, 6, o)) })
	for i, row := range hops {
		if want := avgHops(drlDesign(3+i, 6, withMemo(testOpts))); row[0] != want {
			t.Fatalf("%dx%d design: %v hops beside another search, %v alone", 3+i, 3+i, row[0], want)
		}
	}
}

// TestMemoKeysSeparateRuns: a run read from the memo equals the same run
// made without one, so no two networks, sizes, apps or patterns share a
// key.
func TestMemoKeysSeparateRuns(t *testing.T) {
	o := withMemo(testOpts)
	apps := parsecSuite(o)
	for _, c := range []struct {
		col string
		n   int
		app traffic.AppProfile
	}{
		{"Mesh-1", 4, apps[0]}, {"Mesh-2", 4, apps[0]}, {"REC", 4, apps[0]},
		{"Mesh-2", 5, apps[0]}, {"Mesh-2", 4, apps[1]},
	} {
		if got, want := parsecRun(c.col, c.n, c.app, o), parsecRun(c.col, c.n, c.app, withMemo(testOpts)); got != want {
			t.Fatalf("memoized %s %dx%d %s run differs from a fresh one", c.col, c.n, c.n, c.app.Name)
		}
	}
	for _, c := range []struct {
		col string
		n   int
		p   traffic.Pattern
	}{
		// Mostly small rings: a small mesh never saturates in Quick
		// windows, so its sweep runs every rate. The 2×2 mesh sets the
		// network apart from REC 2×2.
		{"REC", 4, traffic.UniformRandom}, {"REC", 3, traffic.UniformRandom},
		{"REC", 4, traffic.Transpose}, {"Mesh-2", 2, traffic.UniformRandom},
		{"REC", 2, traffic.UniformRandom},
	} {
		if got, want := curve(c.col, c.n, c.p, o), curve(c.col, c.n, c.p, withMemo(testOpts)); !reflect.DeepEqual(got, want) {
			t.Fatalf("memoized %s %dx%d %v curve differs from a fresh one", c.col, c.n, c.n, c.p)
		}
	}
}

// TestSharedRunsRenderAsAlone: reports that read runs an earlier report
// made in the same memo print exactly what they print alone.
func TestSharedRunsRenderAsAlone(t *testing.T) {
	o := withMemo(testOpts)
	for _, seq := range [][]func(Options) *Report{
		{figure11ParsecLatency, figure12ParsecHops, figure14ParsecPower, table5ParsecExecTime},
		{table3Overlap8x8, ablations},
	} {
		seq[0](o)
		for _, run := range seq[1:] {
			shared := run(o).String()
			alone := run(withMemo(testOpts)).String()
			if shared != alone {
				t.Fatalf("report differs after %s:\n--- shared\n%s\n--- alone\n%s", seq[0](o).ID, shared, alone)
			}
		}
	}
}

func TestSweepStopsAtSaturation(t *testing.T) {
	nw := column("REC", 4, withMemo(testOpts))
	pts := sweep(func(rate float64) sim.Result {
		return nw.point(traffic.UniformRandom, rate, testOpts)
	}, []float64{0.005, 0.1, 0.3, 0.6, 0.9})
	if len(pts) == 0 {
		t.Fatal("no sweep points")
	}
	if len(pts) == 5 {
		t.Log("sweep never saturated (acceptable on small NoCs)")
	}
	if satThroughput(pts) <= 0 || zeroLoad(pts) <= 0 {
		t.Fatal("sweep metrics nonpositive")
	}
}

func TestParsecSuiteTrimming(t *testing.T) {
	q := parsecSuite(Options{Quick: true})
	full := parsecSuite(Options{Quick: false})
	if len(q) != 4 || len(full) != 7 {
		t.Fatalf("suite sizes: quick=%d full=%d", len(q), len(full))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope", testOpts); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// The cheap experiments run end-to-end in tests; heavyweight ones are
// exercised by the benchmarks.
func TestFigure15AreaValues(t *testing.T) {
	r, _ := ByID("F15", testOpts)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1] != "45278.000" {
		t.Fatalf("mesh area cell = %q", r.Rows[0][1])
	}
}

func TestFigure9Runs(t *testing.T) {
	r, _ := ByID("F9", testOpts)
	if len(r.Rows) == 0 {
		t.Fatal("empty report")
	}
	if r.Rows[0][0] == "status" {
		t.Fatal("4x4 search failed even with greedy fallback")
	}
}

func TestTable5ShapeHolds(t *testing.T) {
	r, _ := ByID("T5", testOpts)
	if len(r.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Column order: workload, Mesh-2, Mesh-1, REC, DRL. DRL must be the
	// smallest (or tied) in every row — the paper's headline.
	for _, row := range r.Rows {
		var vals [4]float64
		for i := 0; i < 4; i++ {
			if _, err := fmt.Sscanf(row[1+i], "%f", &vals[i]); err != nil {
				t.Fatalf("unparseable cell %q", row[1+i])
			}
		}
		drl := vals[3]
		for i := 0; i < 3; i++ {
			if drl > vals[i]+1e-9 {
				t.Fatalf("%s: DRL %v not <= column %d (%v)", row[0], drl, i, vals[i])
			}
		}
	}
}

func TestFigure12OrderingHolds(t *testing.T) {
	r, _ := ByID("F12", testOpts)
	for _, row := range r.Rows {
		var meshH, recH, drlH float64
		fmt.Sscanf(row[2], "%f", &meshH)
		fmt.Sscanf(row[3], "%f", &recH)
		fmt.Sscanf(row[4], "%f", &drlH)
		// Paper shape: mesh < DRL < REC per benchmark.
		if !(meshH <= drlH && drlH <= recH) {
			t.Fatalf("%s %s: ordering mesh %v <= DRL %v <= REC %v violated",
				row[0], row[1], meshH, drlH, recH)
		}
	}
}

func TestSection67Reliability(t *testing.T) {
	r, _ := ByID("S6.7", testOpts)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1] == "N/A" {
			t.Fatalf("%s diversity missing", row[0])
		}
	}
}
