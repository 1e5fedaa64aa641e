package drl

import (
	"testing"

	"routerless/internal/obs"
)

// TestEpisodeAllocBudget pins the episode arena contract: a warmed-up
// worker runs a full exploration cycle — fingerprints, state encodings,
// legality enumeration, prior sampling, greedy completion, final reward —
// inside a small fixed allocation budget. What remains is genuinely
// retained output: the cloned design of a valid episode and the canonical
// fingerprint strings rendered for states the episode visits. Before the
// arena refactor one episode at this size cost tens of thousands of
// allocations; a regression toward that shows up here long before it
// shows up in a training run.
//
// The DNN and MCTS halves are disabled so the budget measures the episode
// machinery itself; the network owns its own arena (PR 2 tests) and tree
// growth is retained state, both separately benchmarked.
func TestEpisodeAllocBudget(t *testing.T) {
	cfg := DefaultConfig(6, 10)
	cfg.UseDNN = false
	cfg.UseMCTS = false
	s := MustNew(cfg)
	l := s.newLearner(0)
	loop := s.driver.NewLoop(0, l, l.trace)
	for i := 0; i < 5; i++ {
		loop.Episode()
	}
	allocs := testing.AllocsPerRun(20, func() {
		loop.Episode()
	})
	const budget = 60
	if allocs > budget {
		t.Fatalf("warmed-up episode allocates %.1f times, budget %d", allocs, budget)
	}
}

// TestEpisodeAllocBudgetWithTracing pins the tracing side of the episode
// contract, both halves of obs's zero-cost invariant:
//
//   - disabled (the default above): the arena's trace shard is nil, every
//     Start/End in the episode path is a single pointer check, and the
//     budget is identical to the uninstrumented one — the alloc count must
//     not move at all when the span calls are reached with a nil shard;
//   - enabled: a live shard records episode/MCTS spans into its ring, and
//     because Span is a value type and the ring is preallocated, the same
//     budget still holds.
func TestEpisodeAllocBudgetWithTracing(t *testing.T) {
	const budget = 60
	run := func(t *testing.T, tr *obs.Tracer) float64 {
		t.Helper()
		cfg := DefaultConfig(6, 10)
		cfg.UseDNN = false
		cfg.UseMCTS = false
		cfg.Trace = tr
		s := MustNew(cfg)
		l := s.newLearner(0) // nil tracer -> nil shard
		loop := s.driver.NewLoop(0, l, l.trace)
		for i := 0; i < 5; i++ {
			loop.Episode()
		}
		return testing.AllocsPerRun(20, func() {
			loop.Episode()
		})
	}
	t.Run("disabled", func(t *testing.T) {
		if allocs := run(t, nil); allocs > budget {
			t.Fatalf("episode with nil tracer allocates %.1f times, budget %d", allocs, budget)
		}
	})
	t.Run("enabled", func(t *testing.T) {
		if allocs := run(t, obs.NewTracer(1<<14)); allocs > budget {
			t.Fatalf("episode with live tracer allocates %.1f times, budget %d", allocs, budget)
		}
	})
}

// TestPolicyEvalZeroAlloc pins the per-worker evaluation route: the
// one-sample inference Forward runs from the episode arena's one-element
// batch, so a warmed call allocates nothing.
func TestPolicyEvalZeroAlloc(t *testing.T) {
	s := MustNew(DefaultConfig(4, 6))
	ar := s.newLearner(0)
	state := ar.env.StateInto(nil)
	ar.policyEval(state) // warm the arena's output slots
	if allocs := testing.AllocsPerRun(20, func() {
		ar.policyEval(state)
	}); allocs != 0 {
		t.Fatalf("warmed policyEval allocates %.1f times, want 0", allocs)
	}
}
