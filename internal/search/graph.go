package search

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Graph is a link-placement design: a fixed base adjacency plus the links
// inserted on it, under the rules every placement domain shares (no self
// link, a total link budget, a per-node cap on inserted links, no
// duplicate of an existing link) and one domain rule for the geometry.
// Distances are all-pairs BFS hops, rebuilt lazily after an insertion.
type Graph struct {
	adj   [][]int  // base plus inserted neighbours per node
	extra []int    // inserted links per node
	links [][2]int // inserted links as (low, high), in insertion order

	budget, ports int
	rule          func(a, b int) string

	dirty bool
	dist  [][]int16 // dist[s][t] in hops, -1 when unreachable
}

// NewGraph takes ownership of the base adjacency. budget caps the inserted
// links, ports caps them per node, and rule returns a constant reason when
// the domain's geometry forbids the link a-b, or "" when it allows it.
func NewGraph(adj [][]int, budget, ports int, rule func(a, b int) string) *Graph {
	return &Graph{adj: adj, extra: make([]int, len(adj)), budget: budget, ports: ports, rule: rule, dirty: true}
}

// V returns the node count.
func (g *Graph) V() int { return len(g.adj) }

// Links returns the inserted links, each as (low, high).
func (g *Graph) Links() [][2]int { return g.links }

// Clone deep-copies the design; the copy rebuilds its own distances.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:    make([][]int, len(g.adj)),
		extra:  append([]int(nil), g.extra...),
		links:  append([][2]int(nil), g.links...),
		budget: g.budget, ports: g.ports, rule: g.rule,
		dirty: true,
	}
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	return c
}

// reject returns why the link a-b is illegal, or "" when it is legal. It
// builds nothing, so sweeping it over every pair allocates nothing.
func (g *Graph) reject(a, b int) string {
	switch {
	case a < 0 || b < 0 || a >= len(g.adj) || b >= len(g.adj):
		return "node out of range"
	case a == b:
		return "self link"
	case len(g.links) >= g.budget:
		return "link budget exhausted"
	case g.extra[a] >= g.ports || g.extra[b] >= g.ports:
		return "port cap reached"
	}
	for _, nb := range g.adj[a] {
		if nb == b {
			return "link exists"
		}
	}
	return g.rule(a, b)
}

// CanAdd validates the link a-b against every rule.
func (g *Graph) CanAdd(a, b int) error {
	if why := g.reject(a, b); why != "" {
		return fmt.Errorf("link %d-%d: %s", a, b, why)
	}
	return nil
}

// AddLink inserts the bidirectional link a-b.
func (g *Graph) AddLink(a, b int) error {
	if err := g.CanAdd(a, b); err != nil {
		return err
	}
	g.add(a, b)
	return nil
}

// add inserts a link the caller has found legal.
func (g *Graph) add(a, b int) {
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.extra[a]++
	g.extra[b]++
	g.links = append(g.links, [2]int{min(a, b), max(a, b)})
	g.dirty = true
}

// Dist returns the shortest-path hop count from a to b, or -1 when b is
// unreachable.
func (g *Graph) Dist(a, b int) int { return int(g.distances()[a][b]) }

// distances rebuilds the all-pairs BFS table when a link has been added
// since the last call, reusing the table's storage.
func (g *Graph) distances() [][]int16 {
	if !g.dirty {
		return g.dist
	}
	v := len(g.adj)
	if g.dist == nil {
		flat := make([]int16, v*v)
		g.dist = make([][]int16, v)
		for s := range g.dist {
			g.dist[s] = flat[s*v : (s+1)*v : (s+1)*v]
		}
	}
	queue := make([]int, v) // each node enters once per source
	for s, row := range g.dist {
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue[0] = s
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			for _, nb := range g.adj[u] {
				if row[nb] < 0 {
					row[nb] = row[u] + 1
					queue[tail] = nb
					tail++
				}
			}
		}
	}
	g.dirty = false
	return g.dist
}

// separation is how far apart a and b are for link placement: their hop
// count, or 4·V when they are unreachable, which outranks every path.
func (g *Graph) separation(a, b int) int {
	if h := g.Dist(a, b); h >= 0 {
		return h
	}
	return 4 * len(g.adj)
}

// Placement is the Problem of inserting links on a Graph until its budget
// is spent. An action is the link "a-b" with a < b, so byte order is the
// searcher's action order. A link's prior and its greedy score are both
// its separation: the heuristic shortcuts the farthest pair first and
// bridges unreachable pairs before any other.
type Placement struct {
	// Base returns a fresh base design for each episode.
	Base func() *Graph
	// Reward scores a finished design; higher is better.
	Reward func(*Graph) float64
}

// placementEnv is one Placement episode.
type placementEnv struct {
	g      *Graph
	reward func(*Graph) float64
}

func linkAction(a, b int) string { return strconv.Itoa(a) + "-" + strconv.Itoa(b) }

func parseLink(s string) (a, b int) {
	fmt.Sscanf(s, "%d-%d", &a, &b)
	return a, b
}

func (e *placementEnv) Fingerprint() string {
	keys := make([]string, len(e.g.links))
	for i, l := range e.g.links {
		keys[i] = linkAction(l[0], l[1])
	}
	slices.Sort(keys)
	return strings.Join(keys, ";")
}

func (e *placementEnv) Actions() []string {
	var out []string
	for a := range e.g.adj {
		for b := a + 1; b < len(e.g.adj); b++ {
			if e.g.reject(a, b) == "" {
				out = append(out, linkAction(a, b))
			}
		}
	}
	return out
}

func (e *placementEnv) Step(action string) float64 {
	a, b := parseLink(action)
	if e.g.reject(a, b) != "" {
		return -1 // illegal insertion
	}
	e.g.add(a, b)
	return 0
}

func (e *placementEnv) Done() bool { return len(e.g.links) >= e.g.budget }

func (e *placementEnv) FinalReward() float64 { return e.reward(e.g) }

// NewEpisode implements Problem.
func (p Placement) NewEpisode() Environment { return &placementEnv{g: p.Base(), reward: p.Reward} }

// Greedy implements Problem: the first legal pair in (a, b) order with the
// largest separation.
func (p Placement) Greedy(env Environment) (string, bool) {
	g := env.(*placementEnv).g
	bestA, bestB, best := -1, -1, -1
	for a := range g.adj {
		for b := a + 1; b < len(g.adj); b++ {
			if g.reject(a, b) != "" {
				continue
			}
			if s := g.separation(a, b); s > best {
				bestA, bestB, best = a, b, s
			}
		}
	}
	if bestA < 0 {
		return "", false
	}
	return linkAction(bestA, bestB), true
}

// Priors implements Problem: each link weighs its pair's separation.
func (p Placement) Priors(env Environment, actions []string) []float64 {
	g := env.(*placementEnv).g
	out := make([]float64, len(actions))
	for i, s := range actions {
		out[i] = float64(g.separation(parseLink(s)))
	}
	return out
}

// Explore runs the searcher on the placement and returns the best design
// found with the run's result.
func (p Placement) Explore(cfg Config) (*Graph, *Result) {
	s := New(cfg, p)
	var best *Graph
	// Every episode builds its own graph, so the best one is kept as is.
	s.OnBest(func(env Environment, _ Outcome) { best = env.(*placementEnv).g })
	res := s.Run()
	return best, res
}
