// Package search is the exploration framework both searches of this
// repository run on, with the §6.8 ("Broad Applicability") problems that
// carry it beyond routerless NoCs. The Driver runs the exploration cycle
// of Fig. 4 on one or more workers, each step through Choose, the choice
// of §4.5 (ε-greedy heuristic, else tree selection (Eq. 21), else leaf
// expansion with priors). A Worker supplies the problem: internal/drl the
// routerless search, the single-worker Searcher a Problem. Graph and
// Placement are the shared core of link placement: internal/noc3d and
// internal/chiplet each supply only a base graph, a geometric rule and a
// reward. A Placement's link ids ascend as the link names "a-b" do in byte
// order, so its searches visit what a string-keyed tree would.
package search

import (
	"math/rand"

	"routerless/internal/mcts"
	"routerless/internal/obs"
)

// Gamma discounts the step rewards of both searches into the returns-to-go
// the tree backs up.
const Gamma = 0.99

// Decision is one decision point of an episode, as Choose sees it.
type Decision interface {
	// Actions enumerates the legal action ids in ascending order; the
	// slice is valid until the next call.
	Actions() []int
	// Legal reports whether Actions would list the action.
	Legal(action int) bool
	// Greedy proposes the heuristic action (Algorithm 1's role); ok is
	// false when no action remains.
	Greedy() (action int, ok bool)
	// Priors weights actions, as Actions returned them; the slice is valid
	// until the next call.
	Priors(actions []int) []float64
}

// Choose picks the action at state fp: with probability epsilon d's
// heuristic, else the tree's selection among the edges d accepts, else it
// expands the leaf with d's legal actions and priors and draws from the
// priors. A nil tree always draws. ok is false when no action remains. The
// rng draws ε, then the sample. trace, when non-nil, records the selection
// as an mcts.select span and the leaf's work as an mcts.expand span.
func Choose(tree *mcts.Tree, fp string, d Decision, epsilon float64, rng *rand.Rand, trace *obs.TraceShard) (int, bool) {
	if rng.Float64() < epsilon {
		return d.Greedy()
	}
	if tree != nil {
		sel := trace.Start(obs.SpanMCTSSelect)
		a, ok := tree.Select(fp, d.Legal)
		sel.End()
		if ok {
			return a, true
		}
	}
	ex := trace.Start(obs.SpanMCTSExpand)
	actions := d.Actions()
	if len(actions) == 0 {
		ex.End()
		return 0, false
	}
	priors := d.Priors(actions)
	if tree != nil {
		tree.Expand(fp, actions, priors)
	}
	ex.End()
	return mcts.Sample(actions, priors, rng), true
}

// Environment is one design episode's mutable state, and the Decision of
// its current step: Priors is where a learned policy plugs in, as the
// routerless search's DNN does.
type Environment interface {
	Decision
	// Fingerprint canonically identifies the current design state.
	Fingerprint() string
	// Step applies an action, returning its immediate reward. Illegal or
	// wasted actions should return negative rewards (§4.3's shaping).
	Step(action int) float64
	// Done reports whether the episode must end.
	Done() bool
	// FinalReward scores the finished design (higher is better).
	FinalReward() float64
}

// Problem creates fresh episodes.
type Problem interface {
	// NewEpisode returns a blank design environment.
	NewEpisode() Environment
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

// Searcher runs a Problem on the Driver with one worker.
type Searcher struct {
	cfg    Config
	prob   Problem
	driver Driver
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
	return &Searcher{cfg: cfg, prob: prob, driver: Driver{Tree: mcts.NewTree(cfg.CPuct), Epsilon: cfg.Epsilon, Seed: cfg.Seed}}
}

// OnBest registers a callback fired whenever an episode strictly improves
// on the best final reward; the environment passed is the finished
// episode's.
func (s *Searcher) OnBest(fn func(env Environment, out Outcome)) { s.onBest = fn }

// Run executes the configured episodes. The run is deterministic in Seed.
func (s *Searcher) Run() *Result {
	w := &episode{s: s}
	outcomes := s.driver.Run(s.cfg.Episodes, 1, func(int) (Worker, *obs.TraceShard) { return w, nil })
	return &Result{Best: w.best, Outcomes: outcomes, TreeSize: s.driver.Tree.Size()}
}

// episode is the Worker of a Searcher: the current episode's environment
// and the best outcome so far.
type episode struct {
	Environment
	s    *Searcher
	best Outcome
}

func (e *episode) Begin() { e.Environment = e.s.prob.NewEpisode() }

func (e *episode) Stop(steps int) bool { return steps >= e.s.cfg.MaxSteps || e.Done() }

func (e *episode) Finish() float64 { return e.FinalReward() }

func (e *episode) End(out Outcome, _ []float64) {
	if out.Episode == 1 || out.Final > e.best.Final {
		e.best = out
		if e.s.onBest != nil {
			e.s.onBest(e.Environment, out)
		}
	}
}
