package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"routerless/internal/mcts"
	"routerless/internal/obs"
)

// counterEnv is a toy problem: pick digits; final reward is the sum, but
// any digit above Limit is penalized. The optimum is to always pick Limit.
type counterEnv struct {
	picks []int
	limit int
	steps int
}

func (e *counterEnv) Fingerprint() string { return fmt.Sprint(e.picks) }

func (e *counterEnv) Actions() []int {
	out := make([]int, 10)
	for i := range out {
		out[i] = i
	}
	return out
}

func (e *counterEnv) Legal(v int) bool { return v >= 0 && v < 10 }

func (e *counterEnv) Step(v int) float64 {
	e.picks = append(e.picks, v)
	if v > e.limit {
		return -5
	}
	return 0
}

func (e *counterEnv) Done() bool { return len(e.picks) >= e.steps }

func (e *counterEnv) FinalReward() float64 {
	s := 0.0
	for _, v := range e.picks {
		if v <= e.limit {
			s += float64(v)
		}
	}
	return s
}

type counterProblem struct{ limit, steps int }

func (p counterProblem) NewEpisode() Environment {
	return &counterEnv{limit: p.limit, steps: p.steps}
}

func (e *counterEnv) Greedy() (int, bool) {
	return e.limit, true
}

func (e *counterEnv) Priors(actions []int) []float64 {
	out := make([]float64, len(actions))
	for i := range out {
		out[i] = 1 // uniform
	}
	return out
}

func TestSearcherFindsGoodEpisodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Episodes = 60
	cfg.Epsilon = 0.2
	cfg.MaxSteps = 8
	prob := counterProblem{limit: 6, steps: 3}
	res := New(cfg, prob).Run()
	if len(res.Outcomes) != 60 {
		t.Fatalf("episodes = %d", len(res.Outcomes))
	}
	// Optimal final is 18 (three sixes); the search should get close.
	if res.Best.Final < 14 {
		t.Fatalf("best final = %v, want >= 14", res.Best.Final)
	}
	if res.TreeSize == 0 {
		t.Fatal("tree never expanded")
	}
}

func TestSearcherLearningImproves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Episodes = 200
	cfg.Epsilon = 0 // pure tree/prior guidance
	// The exploration constant must be scaled to the reward magnitude
	// (final rewards reach 18 here) or UCB exploits a single branch.
	cfg.CPuct = 25
	cfg.MaxSteps = 4
	res := New(cfg, counterProblem{limit: 9, steps: 2}).Run()
	// Mean of the last quarter should beat the first quarter: the tree
	// steers toward high-return branches.
	q := len(res.Outcomes) / 4
	first, last := 0.0, 0.0
	for i := 0; i < q; i++ {
		first += res.Outcomes[i].Final
		last += res.Outcomes[len(res.Outcomes)-1-i].Final
	}
	if last <= first {
		t.Fatalf("no improvement: first quarter %v vs last %v", first/float64(q), last/float64(q))
	}
}

func TestSearcherOnBestMonotone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Episodes = 30
	cfg.MaxSteps = 3
	s := New(cfg, counterProblem{limit: 5, steps: 2})
	var bests []float64
	s.OnBest(func(env Environment, out Outcome) {
		bests = append(bests, out.Final)
	})
	s.Run()
	if len(bests) == 0 {
		t.Fatal("OnBest never fired")
	}
	for i := 1; i < len(bests); i++ {
		if bests[i] <= bests[i-1] {
			t.Fatalf("OnBest not strictly improving: %v", bests)
		}
	}
}

func TestSearcherDeterministicSingleThread(t *testing.T) {
	mk := func() *Result {
		cfg := DefaultConfig()
		cfg.Episodes = 12
		cfg.MaxSteps = 3
		return New(cfg, counterProblem{limit: 7, steps: 2}).Run()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("single-threaded search not deterministic:\n%+v\n%+v", a, b)
	}
}

// shrinkProblem is a one-step problem on a single root state whose legal
// actions slide with the episode count: episode k may play pool[k-1] and
// pool[k]. Priors favour action 0 heavily, so the root's first expansion
// goes stale: its favourite edge is illegal from the second episode on.
// (The §6.8 problems never do this, since their legal set is a function of
// the state; the toy exercises the tree's contract where they cannot.)
type shrinkProblem struct {
	episodes int
	illegal  []int // actions played while not legal
}

type shrinkEnv struct {
	p     *shrinkProblem
	legal []int
	done  bool
}

func (e *shrinkEnv) Fingerprint() string { return "root" }

func (e *shrinkEnv) Actions() []int { return slices.Clone(e.legal) }

func (e *shrinkEnv) Legal(a int) bool { return slices.Contains(e.legal, a) }

func (e *shrinkEnv) Step(a int) float64 {
	if !e.Legal(a) {
		e.p.illegal = append(e.p.illegal, a)
	}
	e.done = true
	return 0
}

func (e *shrinkEnv) Done() bool { return e.done }

func (e *shrinkEnv) FinalReward() float64 { return 1 }

func (p *shrinkProblem) NewEpisode() Environment {
	pool := []int{0, 1, 2, 3, 4, 5}
	k := min(p.episodes, len(pool)-2)
	p.episodes++
	return &shrinkEnv{p: p, legal: pool[k : k+2]}
}

func (e *shrinkEnv) Greedy() (int, bool) { return 0, false }

func (e *shrinkEnv) Priors(actions []int) []float64 {
	out := make([]float64, len(actions))
	for i, a := range actions {
		out[i] = 1
		if a == 0 {
			out[i] = 100
		}
	}
	return out
}

// TestSearcherPrunesStaleEdge covers the stale-edge path: when the tree's
// argmax edge is no longer legal, Select prunes it and selects among the
// survivors, or, with none left, the searcher samples a legal action from
// the priors. The root keeps the expansion it was first given: Expand
// leaves an existing state alone, so edges for later actions come only
// from Backup, with prior 0.
func TestSearcherPrunesStaleEdge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Episodes = 6
	cfg.Epsilon = 0
	p := &shrinkProblem{}
	s := New(cfg, p)
	res := s.Run()
	if len(res.Outcomes) != cfg.Episodes {
		t.Fatalf("episodes = %d, want %d", len(res.Outcomes), cfg.Episodes)
	}
	if len(p.illegal) != 0 {
		t.Fatalf("played illegal actions %v", p.illegal)
	}
	edges := s.driver.Tree.EdgeStats("root")
	if _, ok := edges[0]; ok {
		t.Fatal("the stale first-expansion favourite 0 survived")
	}
	if len(edges) == 0 {
		t.Fatal("root has no edges; later episodes' actions were never backed up")
	}
	first := map[int]float64{1: 1.0 / 101}
	for a, e := range edges {
		if e.P != first[a] {
			t.Fatalf("edge %d prior = %v, want %v", a, e.P, first[a])
		}
	}
}

// fixedDecision offers the same actions, priors and heuristic pick at every
// step, from slices it owns.
type fixedDecision struct {
	actions []int
	priors  []float64
}

func (d *fixedDecision) Actions() []int { return d.actions }

func (d *fixedDecision) Legal(a int) bool { return slices.Contains(d.actions, a) }

func (d *fixedDecision) Greedy() (int, bool) { return d.actions[0], true }

func (d *fixedDecision) Priors([]int) []float64 { return d.priors }

// TestChooseAllocatesNothing pins the shared per-step choice at zero
// allocations on each of its paths (the heuristic, selection at a known
// state, and a draw without a tree), with tracing off and on: passing the
// Decision's Legal to Select must not put a closure on the heap.
func TestChooseAllocatesNothing(t *testing.T) {
	d := &fixedDecision{actions: []int{1, 3, 5}, priors: []float64{1, 2, 3}}
	tree := mcts.NewTree(1.5)
	tree.Expand("s", d.actions, d.priors)
	rng := rand.New(rand.NewSource(1))
	for _, trace := range []*obs.TraceShard{nil, obs.NewTracer(1 << 10).Shard("choose")} {
		for _, tc := range []struct {
			name string
			tree *mcts.Tree
			eps  float64
		}{{"greedy", tree, 1}, {"select", tree, 0}, {"sample", nil, 0}} {
			allocs := testing.AllocsPerRun(50, func() {
				if _, ok := Choose(tc.tree, "s", d, tc.eps, rng, trace); !ok {
					t.Fatal("no action chosen")
				}
			})
			if allocs != 0 {
				t.Errorf("%s (trace %v): Choose allocates %.1f times per step, want 0", tc.name, trace != nil, allocs)
			}
		}
	}
}
