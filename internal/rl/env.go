// Package rl defines the reinforcement-learning formulation of routerless
// NoC design from §4.2–§4.4 of the paper: states are hop-count matrices,
// actions add rectangular loops, rewards penalize repetitive, invalid and
// illegal additions, and the final return compares the finished design's
// average hop count against mesh. It also provides the advantage
// actor-critic gradient computation (Eqs. 15–20) and the greedy loop
// search of Algorithm 1.
package rl

import (
	"fmt"

	"routerless/internal/mesh"
	"routerless/internal/topo"
)

// Action encodes a loop addition (x1, y1, x2, y2, dir) per §4.2. x selects
// a row and y a column; Dir = 1 (clockwise) or 0 (counterclockwise),
// matching the paper's action tuple.
type Action struct {
	X1, Y1, X2, Y2 int
	Dir            topo.Direction
}

// Loop converts the action to a normalized loop. The boolean is false when
// the rectangle is degenerate (an invalid action).
func (a Action) Loop() (topo.Loop, bool) {
	l, err := topo.NewLoop(a.X1, a.Y1, a.X2, a.Y2, a.Dir)
	if err != nil {
		return topo.Loop{}, false
	}
	return l, true
}

// String renders the tuple.
func (a Action) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%s)", a.X1, a.Y1, a.X2, a.Y2, a.Dir)
}

// ActionLess is the canonical lexicographic order on actions — coordinates
// first, then direction (clockwise before counterclockwise). LegalActions
// enumerates in exactly this order, and deterministic consumers (MCTS
// tie-breaking, prior sampling) rely on it.
func ActionLess(a, b Action) bool {
	if a.X1 != b.X1 {
		return a.X1 < b.X1
	}
	if a.Y1 != b.Y1 {
		return a.Y1 < b.Y1
	}
	if a.X2 != b.X2 {
		return a.X2 < b.X2
	}
	if a.Y2 != b.Y2 {
		return a.Y2 < b.Y2
	}
	return a.Dir < b.Dir
}

// ActionKind classifies the outcome of Env.Step per §4.3.
type ActionKind int

// Step outcomes.
const (
	Valid      ActionKind = iota // loop added, reward 0
	Repetitive                   // duplicate loop, reward -1
	Invalid                      // non-rectangular loop, reward -1
	Illegal                      // node-overlap violation, reward -5N
)

// String names the outcome.
func (k ActionKind) String() string {
	switch k {
	case Valid:
		return "valid"
	case Repetitive:
		return "repetitive"
	case Invalid:
		return "invalid"
	case Illegal:
		return "illegal"
	}
	return "unknown"
}

// Env is the routerless NoC design environment.
type Env struct {
	N          int
	OverlapCap int
	// IllegalPenalty is the reward for overlap-violating actions
	// (default −5N per §4.3). The reward-shaping ablation weakens it.
	IllegalPenalty float64
	// MaxLoopLen, when > 0, forbids loops whose perimeter exceeds it —
	// one of the additional constraints §6.2 proposes integrating into
	// the framework ("such as maximum loop length"). Violations are
	// illegal actions.
	MaxLoopLen int

	topo     *topo.Topology
	meshHops float64
	// scores is the lazily built per-rectangle greedy score cache (see
	// scores.go); Step keeps it consistent in place (noteAdded).
	scores *scoreTable
	// legalBuf backs LegalActions so steady-state enumeration is
	// allocation-free.
	legalBuf []Action
}

// NewEnv creates a blank N×N design environment under the given node
// overlapping cap (0 = unconstrained).
func NewEnv(n, overlapCap int) *Env {
	e := &Env{
		N: n, OverlapCap: overlapCap,
		IllegalPenalty: -5 * float64(n),
		meshHops:       mesh.AverageHops(n, n),
	}
	e.Reset()
	return e
}

// NewEnvFrom builds an environment seeded with an existing design (e.g. a
// constructive baseline that further exploration should improve). The
// topology is cloned; the cap applies to future additions only.
func NewEnvFrom(t *topo.Topology, overlapCap int) *Env {
	if t.Rows() != t.Cols() {
		panic("rl: NewEnvFrom requires a square topology")
	}
	e := NewEnv(t.Rows(), overlapCap)
	e.topo = t.Clone()
	e.topo.SetOverlapCap(overlapCap)
	e.scores = nil
	return e
}

// Reset clears the design back to a fully disconnected NoC. The topology
// and score-cache buffers are reused, so a recycled environment runs its
// next episode without fresh heap allocation.
func (e *Env) Reset() {
	if e.topo == nil {
		e.topo = topo.NewSquare(e.N, e.OverlapCap)
	} else {
		e.topo.Reset()
		e.topo.SetOverlapCap(e.OverlapCap)
	}
	if e.scores != nil {
		e.scores.markAllDirty()
	}
}

// Topology exposes the design under construction (callers must not
// mutate it directly).
func (e *Env) Topology() *topo.Topology { return e.topo }

// StateInto writes the hop-count matrix encoding into dst, reallocating
// only when dst lacks capacity, and returns the destination slice. Reusing
// one buffer per decision point keeps the episode hot path allocation-free.
func (e *Env) StateInto(dst []float64) []float64 { return e.topo.HopMatrixInto(dst) }

// Fingerprint keys the current design for MCTS node lookup.
func (e *Env) Fingerprint() string { return e.topo.Fingerprint() }

// allowed reports whether l obeys the environment's extra constraints
// beyond what the topology enforces (currently MaxLoopLen).
func (e *Env) allowed(l topo.Loop) bool {
	return e.MaxLoopLen <= 0 || l.Len() <= e.MaxLoopLen
}

// Legal reports whether the action would be a Valid step right now.
func (e *Env) Legal(a Action) bool {
	l, ok := a.Loop()
	return ok && e.allowed(l) && e.topo.CheckAdd(l) == nil
}

// Step applies an action and returns the immediate reward and its
// classification. Only Valid actions mutate the design.
func (e *Env) Step(a Action) (reward float64, kind ActionKind) {
	l, ok := a.Loop()
	if !ok {
		return -1, Invalid
	}
	if !e.allowed(l) {
		return e.IllegalPenalty, Illegal
	}
	switch err := e.topo.AddLoop(l); err {
	case nil:
		if e.scores != nil {
			e.scores.noteAdded(e.topo, l)
		}
		return 0, Valid
	case topo.ErrRepetitive:
		return -1, Repetitive
	case topo.ErrIllegal:
		return e.IllegalPenalty, Illegal
	default: // out of bounds is an invalid rectangle specification
		return -1, Invalid
	}
}

// LegalActions enumerates every loop addition currently allowed. Both
// directions of each placeable rectangle are included; rectangles already
// present in one direction remain legal in the other. The enumeration
// reads the cached per-rectangle legality, and the returned slice is an
// internal buffer reused (and overwritten) by the next call — copy it to
// retain across steps.
func (e *Env) LegalActions() []Action {
	s := e.scoresSynced()
	rects := s.tab.Rects()
	out := e.legalBuf[:0]
	for ri := range s.sc {
		sc := &s.sc[ri]
		if !sc.cwOK && !sc.ccwOK {
			continue
		}
		r := &rects[ri]
		if sc.cwOK {
			out = append(out, Action{r.R1, r.C1, r.R2, r.C2, topo.Clockwise})
		}
		if sc.ccwOK {
			out = append(out, Action{r.R1, r.C1, r.R2, r.C2, topo.Counterclockwise})
		}
	}
	e.legalBuf = out
	return out
}

// AverageHops returns the design's average hop count with unconnected
// pairs charged the 5N sentinel, so connectivity gaps dominate the metric
// exactly as they dominate the state encoding.
func (e *Env) AverageHops() float64 {
	mean, un := e.topo.AverageHops()
	n := e.topo.N()
	pairs := n * (n - 1)
	if pairs == 0 {
		return 0
	}
	connected := pairs - un
	total := mean*float64(connected) + topo.UnconnectedHops(e.N, e.N)*float64(un)
	return total / float64(pairs)
}

// FinalReward is the episode-final return (§4.3): mesh average hop count
// minus the design's average hop count. Maximizing it minimizes hop count;
// a fully connected design near mesh performance approaches zero.
func (e *Env) FinalReward() float64 {
	return e.meshHops - e.AverageHops()
}

// FullyConnected reports whether the current design is complete.
func (e *Env) FullyConnected() bool { return e.topo.FullyConnected() }
