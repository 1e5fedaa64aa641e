package drl

import (
	"math/rand"
	"testing"

	"routerless/internal/nn"
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
	rng := rand.New(rand.NewSource(5))
	ar := s.newArena()
	for i := 0; i < 5; i++ {
		s.runEpisode(nil, rng, guidedActions(cfg.N), ar)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.runEpisode(nil, rng, guidedActions(cfg.N), ar)
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
		rng := rand.New(rand.NewSource(5))
		ar := s.newArena()
		ar.trace = tr.Shard("drl.worker.00") // nil tracer -> nil shard
		for i := 0; i < 5; i++ {
			s.runEpisode(nil, rng, guidedActions(cfg.N), ar)
		}
		return testing.AllocsPerRun(20, func() {
			s.runEpisode(nil, rng, guidedActions(cfg.N), ar)
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
	net := nn.NewPolicyValueNet(s.cfg.NN, 1)
	ar := s.newArena()
	state := ar.env.StateInto(nil)
	s.policyEval(net, state, ar) // warm the arena's output slots
	if allocs := testing.AllocsPerRun(20, func() {
		s.policyEval(net, state, ar)
	}); allocs != 0 {
		t.Fatalf("warmed policyEval allocates %.1f times, want 0", allocs)
	}
}
