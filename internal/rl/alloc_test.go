package rl

import (
	"sync"
	"testing"

	"routerless/internal/obs"
)

// These tests pin the PR's zero-allocation contract for the episode hot
// path: once an environment's buffers are warm, the greedy search loop,
// the state encoding, and the fingerprint are allocation-free. Any
// regression (a lost buffer reuse, a reintroduced per-scan make, an
// accidental sort closure) fails here before it shows up as an experiment
// slowdown. Same methodology as the PR 2 DNN arena tests and the PR 3
// simulator tests.

// TestGreedyCompleteZeroAllocSteadyState drives a recycled environment
// through an entire design construction — every greedySearch scan and
// every Step — and requires zero heap allocations once warm. This covers
// the score table's dirty set, the topology's incremental aggregates, the
// canonical fingerprint order, and the legality buffers all at once.
func TestGreedyCompleteZeroAllocSteadyState(t *testing.T) {
	e := NewEnv(6, 10)
	episode := func() {
		e.Reset()
		if GreedyComplete(e) == 0 {
			t.Fatal("greedy added no loops")
		}
	}
	episode() // warm: topology, score table, fingerprint order, buffers
	allocs := testing.AllocsPerRun(20, episode)
	if allocs != 0 {
		t.Fatalf("warmed-up greedy completion allocates %.1f times, want 0", allocs)
	}
}

// TestGreedyStepZeroAllocSteadyState pins the finer unit: one
// greedySearch scan plus the Step applying its action, mid-construction.
func TestGreedyStepZeroAllocSteadyState(t *testing.T) {
	e := NewEnv(6, 10)
	GreedyComplete(e) // warm all buffers at full occupancy
	e.Reset()
	allocs := testing.AllocsPerRun(20, func() {
		r := greedySearch(e)
		if !r.OK {
			e.Reset()
			return
		}
		if _, kind := e.Step(r.Action); kind != Valid {
			t.Fatal("greedy proposed an unplayable action")
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed-up greedy step allocates %.1f times, want 0", allocs)
	}
}

// TestGreedyStepZeroAllocWithNilTraceSpan pins the disabled-tracing
// invariant for the search hot path: a greedy scan + step wrapped in a
// span on a nil shard (exactly what the DRL worker does when no -trace
// flag is given) keeps the zero-allocation pin. If the obs span machinery
// ever allocates on its disabled path, the episode loop regresses here
// first.
func TestGreedyStepZeroAllocWithNilTraceSpan(t *testing.T) {
	e := NewEnv(6, 10)
	GreedyComplete(e) // warm all buffers at full occupancy
	e.Reset()
	var sh *obs.TraceShard // nil: tracing disabled
	allocs := testing.AllocsPerRun(20, func() {
		sp := sh.Start(obs.SpanMCTSSelect)
		r := greedySearch(e)
		if !r.OK {
			e.Reset()
			sp.End()
			return
		}
		if _, kind := e.Step(r.Action); kind != Valid {
			t.Fatal("greedy proposed an unplayable action")
		}
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("warmed-up greedy step under a nil trace span allocates %.1f times, want 0", allocs)
	}
}

// TestStateIntoZeroAlloc pins the copy-free state encoding: after the
// first materialization, StateInto into a capacity-sufficient buffer never
// touches the heap, even as steps keep mutating the design.
func TestStateIntoZeroAlloc(t *testing.T) {
	e := NewEnv(6, 10)
	GreedyComplete(e) // warm buffers at full design occupancy
	e.Reset()
	buf := e.StateInto(nil) // materialize the incremental matrix
	allocs := testing.AllocsPerRun(50, func() {
		if r := greedySearch(e); r.OK {
			e.Step(r.Action)
		} else {
			e.Reset()
		}
		buf = e.StateInto(buf)
	})
	if allocs != 0 {
		t.Fatalf("warmed-up StateInto allocates %.1f times, want 0", allocs)
	}
}

// TestFingerprintZeroAllocWhenClean pins the cached canonical fingerprint:
// repeated reads of an unchanged design cost nothing.
func TestFingerprintZeroAllocWhenClean(t *testing.T) {
	e := NewEnv(6, 10)
	GreedyComplete(e)
	e.Fingerprint() // render once
	allocs := testing.AllocsPerRun(100, func() {
		_ = e.Fingerprint()
	})
	if allocs != 0 {
		t.Fatalf("clean fingerprint read allocates %.1f times, want 0", allocs)
	}
}

// TestLegalActionsZeroAllocSteadyState pins the reused enumeration buffer.
func TestLegalActionsZeroAllocSteadyState(t *testing.T) {
	e := NewEnv(6, 10)
	e.Actions() // size the buffer at the blank design's maximum
	allocs := testing.AllocsPerRun(50, func() {
		_ = e.Actions()
	})
	if allocs != 0 {
		t.Fatalf("warmed-up Actions allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentEnvsSharedTables exercises the immutability contract the
// score cache relies on: many environments on the same grid share one
// precomputed GridTables instance and nothing else, so fully independent
// searches may run concurrently. Run under -race (make ci covers this
// package) it proves the shared tables are read-only in the hot path.
func TestConcurrentEnvsSharedTables(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	fps := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := NewEnv(5, 8)
			for round := 0; round < 3; round++ {
				e.Reset()
				GreedyComplete(e)
			}
			fps[w] = e.Fingerprint()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if fps[w] != fps[0] {
			t.Fatalf("worker %d produced a different design than worker 0", w)
		}
	}
	if tab0, tab1 := NewEnv(5, 8).Topology().Tables(), NewEnv(5, 8).Topology().Tables(); tab0 != tab1 {
		t.Fatal("environments on the same grid did not share one GridTables")
	}
}
