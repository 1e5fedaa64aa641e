// Package search generalizes the paper's exploration framework beyond
// routerless NoCs (§6.8, "Broad Applicability"): any design problem that
// can present states, candidate actions, rewards, and a final score can be
// driven by the same DNN-prior Monte Carlo tree search with ε-greedy
// heuristic overrides. The routerless case study (internal/drl) is the
// paper's instantiation. Graph and Placement are the shared core of link
// placement, the §6.8 problems: internal/noc3d (3-D NoC links, the paper's
// first suggested application) and internal/chiplet (interposer links)
// each supply only a base graph, a geometric rule and a reward.
//
// The searcher is a thin episode loop over the same tree the routerless
// search uses, mcts.Tree[int], under the same contract: states are keyed
// by fingerprint, actions are integer ids kept in ascending order, which
// also fixes Select's tie-break, Select prunes what Legal rejects, and
// Expand only creates leaves. A Placement's link ids ascend as the link
// names "a-b" do in byte order, so its searches visit what a string-keyed
// tree would.
package search

import (
	"math/rand"

	"routerless/internal/mcts"
)

// Environment is one design episode's mutable state.
type Environment interface {
	// Fingerprint canonically identifies the current design state.
	Fingerprint() string
	// Actions enumerates the currently legal actions as opaque ids, in
	// ascending order. The slice is valid until the next call.
	Actions() []int
	// Legal reports whether Actions would list the action.
	Legal(action int) bool
	// Step applies an action, returning its immediate reward. Illegal or
	// wasted actions should return negative rewards (§4.3's shaping).
	Step(action int) float64
	// Done reports whether the episode must end.
	Done() bool
	// FinalReward scores the finished design (higher is better).
	FinalReward() float64
}

// Problem creates fresh episodes and supplies domain heuristics.
type Problem interface {
	// NewEpisode returns a blank design environment.
	NewEpisode() Environment
	// Greedy proposes the domain's heuristic action (Algorithm 1's role);
	// ok is false when no action remains.
	Greedy(env Environment) (action int, ok bool)
	// Priors weights the legal actions, given in ascending order, for tree
	// expansion and sampling. This is where a learned policy plugs in. The
	// slice is valid until the next call for the same episode.
	Priors(env Environment, actions []int) []float64
}

// Config tunes the generic searcher.
type Config struct {
	Episodes int
	Epsilon  float64
	CPuct    float64
	// MaxSteps bounds one episode's actions.
	MaxSteps int
	Seed     int64
}

// DefaultConfig returns reasonable generic defaults.
func DefaultConfig() Config {
	return Config{Episodes: 30, Epsilon: 0.2, CPuct: 1.5, MaxSteps: 256, Seed: 1}
}

// gamma discounts the step rewards into the returns-to-go the tree backs
// up.
const gamma = 0.99

// Outcome records one finished episode.
type Outcome struct {
	Final   float64
	Steps   int
	Episode int
}

// Result summarizes a search run.
type Result struct {
	// Best is the highest final reward observed.
	Best Outcome
	// Outcomes lists every episode in order.
	Outcomes []Outcome
	// TreeSize counts distinct expanded states.
	TreeSize int
}

// Searcher runs the generic framework on one goroutine.
type Searcher struct {
	cfg    Config
	prob   Problem
	tree   *mcts.Tree[int]
	result Result
	// onBest, when set, observes strictly improving episodes; domains use
	// it to snapshot the best design.
	onBest func(env Environment, out Outcome)
}

// New builds a searcher for the problem.
func New(cfg Config, prob Problem) *Searcher {
	if cfg.Episodes < 1 {
		cfg.Episodes = 1
	}
	if cfg.MaxSteps < 1 {
		cfg.MaxSteps = 256
	}
	less := func(a, b int) bool { return a < b }
	return &Searcher{cfg: cfg, prob: prob, tree: mcts.NewTree(cfg.CPuct, less)}
}

// OnBest registers a callback fired whenever an episode strictly improves
// on the best final reward; the environment passed is the finished
// episode's.
func (s *Searcher) OnBest(fn func(env Environment, out Outcome)) { s.onBest = fn }

// Run executes the configured episodes. The run is deterministic in Seed.
func (s *Searcher) Run() *Result {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	for e := 0; e < s.cfg.Episodes; e++ {
		s.runEpisode(rng)
	}
	s.result.TreeSize = s.tree.Size()
	out := s.result
	return &out
}

func (s *Searcher) runEpisode(rng *rand.Rand) {
	env := s.prob.NewEpisode()
	var path []mcts.PathStep[int]
	var returns []float64
	for steps := 0; steps < s.cfg.MaxSteps && !env.Done(); steps++ {
		fp := env.Fingerprint()
		action, ok := s.choose(env, fp, rng)
		if !ok {
			break
		}
		path = append(path, mcts.PathStep[int]{Fingerprint: fp, Action: action})
		returns = append(returns, env.Step(action))
	}
	final := env.FinalReward()

	// Turn the step rewards into discounted returns-to-go in place.
	g := final
	for i := len(returns) - 1; i >= 0; i-- {
		g = returns[i] + gamma*g
		returns[i] = g
	}
	s.tree.Backup(path, returns)

	out := Outcome{Final: final, Steps: len(path), Episode: len(s.result.Outcomes) + 1}
	s.result.Outcomes = append(s.result.Outcomes, out)
	if len(s.result.Outcomes) == 1 || final > s.result.Best.Final {
		s.result.Best = out
		if s.onBest != nil {
			s.onBest(env, out)
		}
	}
}

// choose mirrors the routerless action policy: ε-greedy heuristic, tree
// selection at known states, expansion with priors at leaves. Only a leaf
// enumerates the legal actions.
func (s *Searcher) choose(env Environment, fp string, rng *rand.Rand) (int, bool) {
	if rng.Float64() < s.cfg.Epsilon {
		return s.prob.Greedy(env)
	}
	if a, ok := s.tree.Select(fp, env.Legal); ok {
		return a, true
	}
	actions := env.Actions()
	if len(actions) == 0 {
		return 0, false
	}
	priors := s.prob.Priors(env, actions)
	s.tree.Expand(fp, actions, priors)
	return mcts.Sample(actions, priors, rng), true
}
