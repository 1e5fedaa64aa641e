// Package mcts implements the Monte Carlo tree search of §4.5 as one tree
// over integer action ids, shared by both searches: nodes are previously
// seen designs keyed by a canonical fingerprint string, edges are actions
// kept in ascending id order (which fixes Select's tie-break), and each
// edge tracks the prior P(a;s), the visit count N(a;s), and the mean
// cumulative return V of the subtree it leads to. The routerless search
// (package drl) keys edges by rl.Action.ID and the §6.8 link placement
// (package search) by link id; both make each step's Select and Expand
// calls through search.Choose.
//
// Select follows the upper-confidence rule of Eqs. 21–22 and prunes each
// argmax edge the state's legality test rejects. Expand only creates
// leaves. Backup records every played action, so penalized actions enter
// the tree with prior 0; a state's legal set depends on the state alone,
// so those are the only edges Select can reject.
//
// The tree is shared by the multi-threaded learners of §4.6 and guarded by
// one mutex: every method takes it once, for the whole operation (Backup
// for its whole path), so each operation sees and leaves a consistent tree.
package mcts

import (
	"math"
	"math/rand"
	"sync"
)

// Edge is the statistics triple for one action out of one state.
type Edge struct {
	P float64 // prior probability from the policy network
	N int     // visit count
	W float64 // cumulative backed-up return
}

// V returns the mean return of the edge (0 before any visit).
func (e *Edge) V() float64 {
	if e.N == 0 {
		return 0
	}
	return e.W / float64(e.N)
}

// EdgeEntry pairs an action id with its edge statistics in a node's flat
// edge list.
type EdgeEntry struct {
	Action int
	Edge
}

// Node is a previously explored design. Its edges live in one slice sorted
// by action id rather than a map: Select's argmax is a linear scan whose
// tie-break toward the least id falls out of the order (no map
// iteration-order hazard), lookups are binary searches over contiguous
// memory, and a node costs one allocation instead of one per edge.
type Node struct {
	Edges []EdgeEntry
	// SumN caches Σ_j N(a_j; s) for the U term.
	SumN int
}

// find returns the index of action a in the sorted edge slice, or
// (insertion point, false) when absent.
func (n *Node) find(a int) (int, bool) {
	lo, hi := 0, len(n.Edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.Edges[m].Action < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.Edges) && n.Edges[lo].Action == a
}

// insert places a new edge for action a at sorted position i (as returned by
// find) and returns a pointer to it, valid until the next insert.
func (n *Node) insert(i int, a int, e Edge) *Edge {
	n.Edges = append(n.Edges, EdgeEntry{})
	copy(n.Edges[i+1:], n.Edges[i:])
	n.Edges[i] = EdgeEntry{Action: a, Edge: e}
	return &n.Edges[i].Edge
}

// Tree is the shared search tree over integer action ids. All methods are
// safe for concurrent use by the multi-threaded learners of §4.6.
type Tree struct {
	// C is the exploration constant c of Eq. 22.
	C float64

	mu    sync.Mutex
	nodes map[string]*Node
}

// NewTree builds an empty tree with exploration constant c.
func NewTree(c float64) *Tree {
	return &Tree{C: c, nodes: make(map[string]*Node)}
}

// Size returns the number of stored states.
func (t *Tree) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.nodes)
}

// Expand registers a leaf state with its actions and matching (unnormalized)
// prior weights; priors[i] belongs to actions[i] and normalization happens
// here. actions must be strictly ascending (both searches enumerate them
// in that order), so the edge slice is built in one pass. Expand copies what it keeps, so the caller may reuse both slices.
// A state that already exists is left as it is: a state's legal actions
// depend on the state alone, so a learner that lost the race to expand it
// has nothing to add.
func (t *Tree) Expand(fp string, actions []int, priors []float64) {
	if len(actions) != len(priors) {
		panic("mcts: actions/priors length mismatch")
	}
	sum := 0.0
	for _, p := range priors {
		sum += p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.nodes[fp]; ok {
		return
	}
	edges := make([]EdgeEntry, len(actions))
	for i, a := range actions {
		np := priors[i]
		if sum > 0 {
			np = np / sum
		} else {
			np = 1 / float64(len(actions))
		}
		edges[i] = EdgeEntry{Action: a, Edge: Edge{P: np}}
	}
	t.nodes[fp] = &Node{Edges: edges}
}

// Select applies Eq. 21 at the state among the edges legal accepts: argmax
// over edges of U(s,a) + V(s_next) with U = C·P(a;s)·√(Σ_j N_j)/(1+N(a;s)).
// The edge slice is sorted by id and the strict > keeps the first maximum,
// so exact score ties break toward the least id by construction. An argmax
// edge that legal rejects is removed, its visits unwound from the node's
// sum, and the argmax is taken again among the survivors, all under one
// lock; legal runs under that lock, so it must not call the tree. The
// boolean is false when the state is unknown or no edge survives.
func (t *Tree) Select(fp string, legal func(int) bool) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	node, ok := t.nodes[fp]
	for ok && len(node.Edges) > 0 {
		sqrtSum := math.Sqrt(float64(node.SumN) + 1)
		best := 0
		bestScore := math.Inf(-1)
		for i := range node.Edges {
			e := &node.Edges[i].Edge
			score := t.C*e.P*sqrtSum/(1+float64(e.N)) + e.V()
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		if a := node.Edges[best].Action; legal(a) {
			return a, true
		}
		node.SumN -= node.Edges[best].N
		node.Edges = append(node.Edges[:best], node.Edges[best+1:]...)
	}
	return 0, false
}

// PathStep identifies one traversed (state, action) pair for Backup.
type PathStep struct {
	Fingerprint string
	Action      int
}

// Backup propagates the episode's returns through the traversed edges
// (§4.5 phase 3): each edge's visit count increments and its cumulative
// return accumulates the discounted return-to-go from that step.
// returns[i] must be the return-to-go at path[i]. The whole path is backed
// up under one lock acquisition, so a concurrent Select sees either none or
// all of an episode's visits.
func (t *Tree) Backup(path []PathStep, returns []float64) {
	if len(path) != len(returns) {
		panic("mcts: path/returns length mismatch")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, ps := range path {
		node, ok := t.nodes[ps.Fingerprint]
		if !ok {
			continue
		}
		at, found := node.find(ps.Action)
		var e *Edge
		if found {
			e = &node.Edges[at].Edge
		} else {
			e = node.insert(at, ps.Action, Edge{P: 0})
		}
		e.N++
		node.SumN++
		e.W += returns[i]
	}
}

// EdgeStats returns a copy of the edge statistics for a state, for tests
// and diagnostics.
func (t *Tree) EdgeStats(fp string) map[int]Edge {
	t.mu.Lock()
	defer t.mu.Unlock()
	node, ok := t.nodes[fp]
	if !ok {
		return nil
	}
	out := make(map[int]Edge, len(node.Edges))
	for i := range node.Edges {
		out[node.Edges[i].Action] = node.Edges[i].Edge
	}
	return out
}

// Sample draws one of actions with probability proportional to its prior,
// or uniformly when the priors sum to zero or less; the last action
// absorbs rounding. A caller that passes its actions in a canonical order
// draws deterministically for a given rng state.
func Sample(actions []int, priors []float64, rng *rand.Rand) int {
	total := 0.0
	for _, p := range priors {
		total += p
	}
	if total <= 0 {
		return actions[rng.Intn(len(actions))]
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, a := range actions {
		acc += priors[i]
		if r < acc {
			return a
		}
	}
	return actions[len(actions)-1]
}
