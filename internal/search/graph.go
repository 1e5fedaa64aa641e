package search

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Graph is a link-placement design: a fixed base adjacency plus the links
// inserted on it, under the rules every placement domain shares (no self
// link, a total link budget, a per-node cap on inserted links, no
// duplicate of an existing link) and one domain rule for the geometry.
// Distances are all-pairs BFS hops, built on first use and then kept
// current by each insertion.
type Graph struct {
	adj   [][]int  // base plus inserted neighbours per node
	extra []int    // inserted links per node
	links [][2]int // inserted links as (low, high), in insertion order

	budget, ports int
	rule          func(a, b int) string

	// lex lists the nodes in the byte order of their decimal names and pos
	// is each node's place in it; they define the link ids (linkID).
	// Clones share both.
	lex, pos []int

	dist [][]int16 // dist[s][t] in hops, -1 when unreachable; nil until built
	old  []int16   // add's copy of the two rows it reads
}

// NewGraph takes ownership of the base adjacency. budget caps the inserted
// links, ports caps them per node, and rule returns a constant reason when
// the domain's geometry forbids the link a-b, or "" when it allows it.
func NewGraph(adj [][]int, budget, ports int, rule func(a, b int) string) *Graph {
	lex, pos := decimalOrder(len(adj))
	return &Graph{adj: adj, extra: make([]int, len(adj)), budget: budget, ports: ports, rule: rule, lex: lex, pos: pos}
}

// decimalOrder returns 0..v-1 in the byte order of their decimal names
// ("0" < "1" < "10" < "100" < "11" < … < "2") and each node's place in
// that order.
func decimalOrder(v int) (lex, pos []int) {
	names := make([]string, v)
	lex, pos = make([]int, v), make([]int, v)
	for x := range lex {
		lex[x], names[x] = x, strconv.Itoa(x)
	}
	slices.SortFunc(lex, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	for i, x := range lex {
		pos[x] = i
	}
	return lex, pos
}

// V returns the node count.
func (g *Graph) V() int { return len(g.adj) }

// Links returns the inserted links, each as (low, high).
func (g *Graph) Links() [][2]int { return g.links }

// Clone deep-copies the design, with room for every link its budget and
// port cap still allow, so insertions on the copy do not allocate. The
// copy takes the distance table as it stands, building it first if
// needed.
func (g *Graph) Clone() *Graph {
	v := len(g.adj)
	c := &Graph{
		adj:    make([][]int, v),
		extra:  append([]int(nil), g.extra...),
		links:  append(make([][2]int, 0, max(g.budget, len(g.links))), g.links...),
		budget: g.budget, ports: g.ports, rule: g.rule,
		lex: g.lex, pos: g.pos,
	}
	spare := func(i int) int { return max(g.ports-g.extra[i], 0) }
	room := 0
	for i, a := range g.adj {
		room += len(a) + spare(i)
	}
	flat := make([]int, room)
	off := 0
	for i, a := range g.adj {
		n := copy(flat[off:], a)
		c.adj[i] = flat[off : off+n : off+n+spare(i)]
		off += n + spare(i)
	}
	c.newTable()
	for s, row := range g.distances() {
		copy(c.dist[s], row)
	}
	return c
}

// linkID is the link a-b's action id, pos[a]·V + pos[b]: for a < b the
// ids sort as the strings "a-b" sort byte-wise, since '-' sorts before
// every digit.
func (g *Graph) linkID(a, b int) int { return g.pos[a]*len(g.adj) + g.pos[b] }

// link decodes an id into its nodes; ok is false when the id is out of
// range or does not name a link a-b with a < b.
func (g *Graph) link(id int) (a, b int, ok bool) {
	v := len(g.adj)
	if id < 0 || id >= v*v {
		return 0, 0, false
	}
	a, b = g.lex[id/v], g.lex[id%v]
	return a, b, a < b
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

// add inserts a link the caller has found legal and brings a built
// distance table up to date: a shortest path uses the new link at most
// once, so d[s][t] becomes min(d[s][t], d[s][a]+1+d[b][t],
// d[s][b]+1+d[a][t]) over the old distances. A source whose distances to
// a and b differ by at most one gains nothing, since the detour through
// the link is then no shorter than the path through its nearer end.
func (g *Graph) add(a, b int) {
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.extra[a]++
	g.extra[b]++
	g.links = append(g.links, [2]int{min(a, b), max(a, b)})
	if g.dist == nil {
		return
	}
	v := len(g.adj)
	ra, rb := g.old[:v], g.old[v:]
	copy(ra, g.dist[a])
	copy(rb, g.dist[b])
	for s, row := range g.dist {
		sa, sb := ra[s], rb[s] // d[s][a] = d[a][s]: the graph is undirected
		if sa >= 0 && sb >= 0 && sa-sb <= 1 && sb-sa <= 1 || sa < 0 && sb < 0 {
			continue
		}
		if sa >= 0 {
			relax(row, sa+1, rb)
		}
		if sb >= 0 {
			relax(row, sb+1, ra)
		}
	}
}

// relax lowers row[t] to via+far[t] wherever far[t] is reachable and the
// sum is shorter, −1 in row counting as unreachable.
func relax(row []int16, via int16, far []int16) {
	for t, f := range far {
		if f >= 0 {
			if d := via + f; row[t] < 0 || d < row[t] {
				row[t] = d
			}
		}
	}
}

// Dist returns the shortest-path hop count from a to b, or -1 when b is
// unreachable.
func (g *Graph) Dist(a, b int) int { return int(g.distances()[a][b]) }

// newTable allocates the distance table and add's scratch rows as one
// flat block.
func (g *Graph) newTable() {
	v := len(g.adj)
	flat := make([]int16, v*v+2*v)
	g.dist = make([][]int16, v)
	for s := range g.dist {
		g.dist[s] = flat[s*v : (s+1)*v : (s+1)*v]
	}
	g.old = flat[v*v:]
}

// distances builds the all-pairs BFS table on first use; add keeps it
// current after that.
func (g *Graph) distances() [][]int16 {
	if g.dist != nil {
		return g.dist
	}
	g.newTable()
	queue := make([]int, len(g.adj)) // each node enters once per source
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
// is spent. An action is a link id (see Graph.linkID): the ids of the
// links a-b with a < b, in integer order, are the strings "a-b" in byte
// order. A link's prior and its greedy score are both its separation: the
// heuristic shortcuts the farthest pair first and bridges unreachable
// pairs before any other.
type Placement struct {
	// Base returns a fresh base design for each episode.
	Base func() *Graph
	// Reward scores a finished design; higher is better.
	Reward func(*Graph) float64

	// scratch, when set, is shared by every episode NewEpisode builds;
	// Explore sets it, as its searcher plays one episode at a time.
	scratch *placementScratch
}

// placementScratch holds the buffers an episode's methods fill and
// return, so a run's episodes reuse one set instead of regrowing their
// own.
type placementScratch struct {
	ids    []int     // Fingerprint's
	key    []byte    // Fingerprint's
	legal  []int     // Actions'
	priors []float64 // Priors'
}

// placementEnv is one Placement episode.
type placementEnv struct {
	g      *Graph
	reward func(*Graph) float64
	*placementScratch
}

// Fingerprint packs the inserted links' ids, ascending, as uvarints, so
// equal link sets get equal keys and different sets different keys.
func (e *placementEnv) Fingerprint() string {
	e.ids = e.ids[:0]
	for _, l := range e.g.links {
		e.ids = append(e.ids, e.g.linkID(l[0], l[1]))
	}
	slices.Sort(e.ids)
	e.key = e.key[:0]
	for _, id := range e.ids {
		e.key = binary.AppendUvarint(e.key, uint64(id))
	}
	return string(e.key)
}

// Actions walks the pairs in id order, so the legal ids come out
// ascending, into the episode's scratch.
func (e *placementEnv) Actions() []int {
	g := e.g
	out := e.legal[:0]
	for i, a := range g.lex {
		for j, b := range g.lex {
			if a < b && g.reject(a, b) == "" {
				out = append(out, i*len(g.lex)+j)
			}
		}
	}
	e.legal = out
	return out
}

func (e *placementEnv) Legal(id int) bool {
	a, b, ok := e.g.link(id)
	return ok && e.g.reject(a, b) == ""
}

func (e *placementEnv) Step(id int) float64 {
	if !e.Legal(id) {
		return -1 // illegal insertion
	}
	a, b, _ := e.g.link(id)
	e.g.add(a, b)
	return 0
}

func (e *placementEnv) Done() bool { return len(e.g.links) >= e.g.budget }

func (e *placementEnv) FinalReward() float64 { return e.reward(e.g) }

// NewEpisode implements Problem.
func (p Placement) NewEpisode() Environment {
	sc := p.scratch
	if sc == nil {
		sc = new(placementScratch)
	}
	return &placementEnv{g: p.Base(), reward: p.Reward, placementScratch: sc}
}

// Greedy implements Decision: the first legal pair in (a, b) order with
// the largest separation.
func (e *placementEnv) Greedy() (int, bool) {
	g := e.g
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
		return 0, false
	}
	return g.linkID(bestA, bestB), true
}

// Priors implements Decision: each link weighs its pair's separation. The
// weights go to the episode's scratch.
func (e *placementEnv) Priors(actions []int) []float64 {
	out := slices.Grow(e.priors[:0], len(actions))[:len(actions)]
	for i, id := range actions {
		a, b, _ := e.g.link(id)
		out[i] = float64(e.g.separation(a, b))
	}
	e.priors = out
	return out
}

// Explore runs the searcher on the placement and returns the best design
// found with the run's result.
func (p Placement) Explore(cfg Config) (*Graph, *Result) {
	p.scratch = new(placementScratch)
	s := New(cfg, p)
	var best *Graph
	// Every episode builds its own graph, so the best one is kept as is.
	s.OnBest(func(env Environment, _ Outcome) { best = env.(*placementEnv).g })
	res := s.Run()
	return best, res
}
