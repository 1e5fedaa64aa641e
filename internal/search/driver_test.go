package search

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"routerless/internal/mcts"
	"routerless/internal/obs"
)

// toyWorker is a Worker whose state is the list of actions taken. Its
// actions are 0..3, its heuristic picks 3 and its priors are uniform.
// Step i earns rewards[i] (0 past the end), the stop rule ends an episode
// after stopAt steps, and propose maps a step to the action proposed
// there (-1: no action remains). It records what End receives.
type toyWorker struct {
	taken   []int
	rewards []float64
	final   float64
	stopAt  int
	propose map[int]int
	ends    []Outcome
	returns [][]float64
}

func (w *toyWorker) Actions() []int { return []int{0, 1, 2, 3} }

func (w *toyWorker) Legal(a int) bool { return a >= 0 && a < 4 }

func (w *toyWorker) Greedy() (int, bool) { return 3, true }

func (w *toyWorker) Priors(actions []int) []float64 {
	out := make([]float64, len(actions))
	for i := range out {
		out[i] = 1
	}
	return out
}

func (w *toyWorker) Begin() { w.taken = w.taken[:0] }

func (w *toyWorker) Fingerprint() string { return fmt.Sprint(w.taken) }

func (w *toyWorker) Propose(*rand.Rand) (int, bool, bool) {
	a, ok := w.propose[len(w.taken)]
	return a, a >= 0, ok
}

func (w *toyWorker) Step(a int) float64 {
	r := 0.0
	if i := len(w.taken); i < len(w.rewards) {
		r = w.rewards[i]
	}
	w.taken = append(w.taken, a)
	return r
}

func (w *toyWorker) Stop(steps int) bool { return steps >= w.stopAt }

func (w *toyWorker) Finish() float64 { return w.final }

func (w *toyWorker) End(out Outcome, returns []float64) {
	w.ends = append(w.ends, out)
	w.returns = append(w.returns, slices.Clone(returns))
}

// TestDriverProposalsDrawNoEpsilon runs one episode at ε = 1, where each
// Choose draws ε and nothing else before taking the heuristic: the
// proposed steps take their proposals, and the rng of worker tid, seeded
// Seed + tid·7919, advanced once per step that was not proposed.
func TestDriverProposalsDrawNoEpsilon(t *testing.T) {
	w := &toyWorker{stopAt: 5, propose: map[int]int{0: 2, 3: 1}}
	d := &Driver{Epsilon: 1, Seed: 9}
	l := d.NewLoop(1, w, nil)
	l.Episode()
	if want := []int{2, 3, 3, 1, 3}; !slices.Equal(w.taken, want) {
		t.Fatalf("actions %v, want %v", w.taken, want)
	}
	ref := rand.New(rand.NewSource(9 + 7919))
	for range 3 {
		ref.Float64()
	}
	if got, want := l.rng.Float64(), ref.Float64(); got != want {
		t.Fatalf("rng after the episode draws %v, want %v (three ε draws)", got, want)
	}
}

// TestDriverStopRules ends episodes each way: the worker's stop rule, a
// proposal of no action, and for the Searcher both MaxSteps and Done.
func TestDriverStopRules(t *testing.T) {
	for _, tc := range []struct {
		name    string
		propose map[int]int
		want    int
	}{{"stop rule", nil, 3}, {"no action", map[int]int{1: -1}, 1}} {
		w := &toyWorker{stopAt: 3, propose: tc.propose}
		(&Driver{Seed: 1}).NewLoop(0, w, nil).Episode()
		if got := w.ends[0].Steps; got != tc.want || len(w.taken) != tc.want {
			t.Errorf("%s: %d steps (%d taken), want %d", tc.name, got, len(w.taken), tc.want)
		}
	}
	for _, tc := range []struct {
		name            string
		maxSteps, steps int
	}{{"MaxSteps", 2, 2}, {"Done", 8, 3}} {
		cfg := DefaultConfig()
		cfg.Episodes, cfg.MaxSteps = 5, tc.maxSteps
		for _, out := range New(cfg, counterProblem{limit: 5, steps: 3}).Run().Outcomes {
			if out.Steps != tc.steps {
				t.Errorf("%s: episode %d took %d steps, want %d", tc.name, out.Episode, out.Steps, tc.steps)
			}
		}
	}
}

// TestDriverReturnsMatchBackup checks that End and the tree receive the
// same returns-to-go, the discounted sums of the step rewards seeded with
// the final reward. Backup updates expanded states only, so the test
// expands the episode's states first.
func TestDriverReturnsMatchBackup(t *testing.T) {
	w := &toyWorker{stopAt: 3, rewards: []float64{1, -2, 0.5}, final: 10}
	tree := mcts.NewTree(1)
	fps := []string{"[]", "[3]", "[3 3]"} // the states ε = 1 visits
	for _, fp := range fps {
		tree.Expand(fp, w.Actions(), w.Priors(w.Actions()))
	}
	(&Driver{Tree: tree, Epsilon: 1, Seed: 1}).NewLoop(0, w, nil).Episode()
	gamma := float64(Gamma)
	g2 := 0.5 + gamma*10
	g1 := -2 + gamma*g2
	g0 := 1 + gamma*g1
	want := []float64{g0, g1, g2}
	if !slices.Equal(w.returns[0], want) {
		t.Fatalf("End got returns %v, want %v", w.returns[0], want)
	}
	if out := w.ends[0]; out != (Outcome{Final: 10, Steps: 3, Episode: 1}) {
		t.Fatalf("End got outcome %+v", out)
	}
	for i, fp := range fps {
		if e := tree.EdgeStats(fp)[3]; e.N != 1 || e.W != want[i] {
			t.Fatalf("state %s: edge 3 backed up N=%d W=%v, want 1 and %v", fp, e.N, e.W, want[i])
		}
	}
}

// TestDriverThreadsNumberEpisodesOnce runs an odd episode count on two
// workers sharing a tree (make ci runs this package under -race): the
// first worker takes the spare episode, and the episodes are numbered
// 1..N once each, in the outcomes and across the workers' End calls.
func TestDriverThreadsNumberEpisodesOnce(t *testing.T) {
	const episodes = 7
	d := &Driver{Tree: mcts.NewTree(1.5), Epsilon: 0.5, Seed: 3}
	var mu sync.Mutex
	workers := map[int]*toyWorker{}
	outs := d.Run(episodes, 2, func(tid int) (Worker, *obs.TraceShard) {
		w := &toyWorker{stopAt: 2}
		mu.Lock()
		workers[tid] = w
		mu.Unlock()
		return w, nil
	})
	if len(outs) != episodes || d.Episodes() != episodes {
		t.Fatalf("%d outcomes, Episodes() = %d, want %d", len(outs), d.Episodes(), episodes)
	}
	var ended []int
	for i, out := range outs {
		if out.Episode != i+1 {
			t.Fatalf("outcome %d is episode %d", i, out.Episode)
		}
	}
	for tid, want := range []int{4, 3} {
		if got := len(workers[tid].ends); got != want {
			t.Errorf("worker %d ran %d episodes, want %d", tid, got, want)
		}
		for _, out := range workers[tid].ends {
			ended = append(ended, out.Episode)
		}
	}
	slices.Sort(ended)
	if want := []int{1, 2, 3, 4, 5, 6, 7}; !slices.Equal(ended, want) {
		t.Fatalf("End saw episodes %v, want %v", ended, want)
	}
}
