package search

import (
	"math/rand"
	"sync"

	"routerless/internal/mcts"
	"routerless/internal/obs"
)

// Worker is the problem a Driver runs, one episode at a time, on one
// goroutine. Its Decision serves Choose. Begin starts a blank episode,
// Fingerprint identifies the current state, Step applies an action and
// returns its reward, Stop is the stop rule after steps steps, and Finish
// completes the design and returns its final reward. End receives the
// numbered outcome and the returns-to-go the tree backed up, valid until
// the worker's next episode.
type Worker interface {
	Decision
	Begin()
	Fingerprint() string
	Step(action int) float64
	Stop(steps int) bool
	Finish() float64
	End(out Outcome, returns []float64)
}

// Proposer is a Worker that may take a step's choice itself: Propose runs
// before every choice, and when proposed is true the step takes action, or
// ends the episode when ok is false, and the rng draws no ε.
type Proposer interface {
	Propose(rng *rand.Rand) (action int, ok, proposed bool)
}

// Driver runs the exploration cycle of Fig. 4 for both searches: per step
// a proposal or Choose, then Step; per episode the completion, one
// returns-to-go pass, one Backup and the worker's End. Its workers share
// the Tree (nil: none), the episode counter and the outcomes. Worker tid's
// rng is seeded Seed + tid·7919, and Choose defers to its heuristic with
// probability Epsilon.
type Driver struct {
	Tree    *mcts.Tree
	Epsilon float64
	Seed    int64

	mu       sync.Mutex
	outcomes []Outcome
}

// Run splits episodes across threads workers, the first taking the
// remainder, and returns the outcomes in episode order. worker builds
// worker tid, on its goroutine, and its episode spans' trace shard.
func (d *Driver) Run(episodes, threads int, worker func(tid int) (Worker, *obs.TraceShard)) []Outcome {
	var wg sync.WaitGroup
	for tid := range threads {
		n := episodes / threads
		if tid < episodes%threads {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, trace := worker(tid)
			l := d.NewLoop(tid, w, trace)
			for range n {
				l.Episode()
			}
		}()
	}
	wg.Wait()
	return d.outcomes
}

// Episodes returns the number of episodes finished so far; it is safe to
// call during Run.
func (d *Driver) Episodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outcomes)
}

// Loop is one worker's episode loop, with the path and returns scratch
// every episode reuses.
type Loop struct {
	d       *Driver
	w       Worker
	rng     *rand.Rand
	trace   *obs.TraceShard
	path    []mcts.PathStep
	returns []float64
}

// NewLoop builds worker tid's loop over w.
func (d *Driver) NewLoop(tid int, w Worker, trace *obs.TraceShard) *Loop {
	return &Loop{d: d, w: w, rng: rand.New(rand.NewSource(d.Seed + int64(tid)*7919)), trace: trace}
}

// Episode runs one exploration cycle.
func (l *Loop) Episode() {
	sp := l.trace.Start(obs.SpanEpisode)
	w := l.w
	w.Begin()
	l.path, l.returns = l.path[:0], l.returns[:0]
	for !w.Stop(len(l.path)) {
		fp := w.Fingerprint()
		action, ok, proposed := 0, false, false
		if p, isProposer := w.(Proposer); isProposer {
			action, ok, proposed = p.Propose(l.rng)
		}
		if !proposed {
			action, ok = Choose(l.d.Tree, fp, w, l.d.Epsilon, l.rng, l.trace)
		}
		if !ok {
			break // no legal action remains
		}
		l.returns = append(l.returns, w.Step(action))
		l.path = append(l.path, mcts.PathStep{Fingerprint: fp, Action: action})
	}
	final := w.Finish()

	g := final // the step rewards become discounted returns-to-go in place
	for i := len(l.returns) - 1; i >= 0; i-- {
		g = l.returns[i] + Gamma*g
		l.returns[i] = g
	}
	d := l.d
	if d.Tree != nil {
		bk := l.trace.Start(obs.SpanMCTSBackup)
		d.Tree.Backup(l.path, l.returns)
		bk.End()
	}
	d.mu.Lock()
	out := Outcome{Final: final, Steps: len(l.path), Episode: len(d.outcomes) + 1}
	d.outcomes = append(d.outcomes, out)
	d.mu.Unlock()
	w.End(out, l.returns)
	sp.End()
}
