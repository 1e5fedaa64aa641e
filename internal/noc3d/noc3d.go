// Package noc3d demonstrates the framework's broad applicability (§6.8):
// the paper's first suggested application is 3-D NoC design, where prior
// small-world approaches (Das et al.) inserted long-range links with a
// limited learning method. Here the same exploration machinery used for
// routerless loop placement — the generic searcher of internal/search —
// places long-range intra-layer links and inter-layer vias on a 3-D mesh
// under port, link-length and budget constraints, minimizing average hop
// count.
package noc3d

import (
	"fmt"
	"sort"
	"strings"

	"routerless/internal/search"
)

// Coord is a 3-D node position.
type Coord struct {
	X, Y, Z int
}

// ID linearizes the coordinate on an n×n×l grid.
func (c Coord) ID(n, layers int) int { return (c.Z*n+c.Y)*n + c.X }

// CoordFromID inverts ID.
func CoordFromID(id, n int) Coord {
	return Coord{X: id % n, Y: (id / n) % n, Z: id / (n * n)}
}

// Dist3D is the Manhattan distance including the vertical dimension.
func Dist3D(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y) + abs(a.Z-b.Z)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Constraints bound link insertion, mirroring the "strict constraints ...
// such as 3-D distance, to meet timing/manufacturing capabilities" the
// paper highlights as the framework's advantage.
type Constraints struct {
	// ExtraPorts caps additional links per node beyond the base mesh.
	ExtraPorts int
	// MaxLen caps a link's 3-D Manhattan length.
	MaxLen int
	// Budget caps the total number of inserted links.
	Budget int
}

// DefaultConstraints returns a modest insertion budget.
func DefaultConstraints(n, layers int) Constraints {
	return Constraints{ExtraPorts: 2, MaxLen: n, Budget: n * layers}
}

// Design is a 3-D mesh with inserted long-range links.
type Design struct {
	N, Layers int
	Cons      Constraints

	adj   [][]int // adjacency lists (base mesh + extras)
	extra []int   // per-node inserted-link count
	links [][2]int
	dirty bool
	dist  [][]int16
}

// NewDesign builds the base n×n×layers 3-D mesh.
func NewDesign(n, layers int, cons Constraints) *Design {
	if n < 2 || layers < 1 {
		panic(fmt.Sprintf("noc3d: invalid grid %dx%dx%d", n, n, layers))
	}
	v := n * n * layers
	d := &Design{
		N: n, Layers: layers, Cons: cons,
		adj:   make([][]int, v),
		extra: make([]int, v),
		dirty: true,
	}
	for id := 0; id < v; id++ {
		c := CoordFromID(id, n)
		for _, nb := range []Coord{
			{c.X + 1, c.Y, c.Z}, {c.X - 1, c.Y, c.Z},
			{c.X, c.Y + 1, c.Z}, {c.X, c.Y - 1, c.Z},
			{c.X, c.Y, c.Z + 1}, {c.X, c.Y, c.Z - 1},
		} {
			if nb.X < 0 || nb.X >= n || nb.Y < 0 || nb.Y >= n || nb.Z < 0 || nb.Z >= layers {
				continue
			}
			d.adj[id] = append(d.adj[id], nb.ID(n, layers))
		}
	}
	return d
}

// V returns the node count.
func (d *Design) V() int { return d.N * d.N * d.Layers }

// Links returns the inserted links.
func (d *Design) Links() [][2]int { return d.links }

// Clone deep-copies the design.
func (d *Design) Clone() *Design {
	c := &Design{
		N: d.N, Layers: d.Layers, Cons: d.Cons,
		adj:   make([][]int, len(d.adj)),
		extra: append([]int(nil), d.extra...),
		links: append([][2]int(nil), d.links...),
		dirty: true,
	}
	for i, a := range d.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	return c
}

// CanAdd validates an insertion against the constraints.
func (d *Design) CanAdd(a, b int) error {
	if a == b {
		return fmt.Errorf("noc3d: self link")
	}
	if len(d.links) >= d.Cons.Budget {
		return fmt.Errorf("noc3d: link budget exhausted")
	}
	if d.extra[a] >= d.Cons.ExtraPorts || d.extra[b] >= d.Cons.ExtraPorts {
		return fmt.Errorf("noc3d: port cap reached")
	}
	ca, cb := CoordFromID(a, d.N), CoordFromID(b, d.N)
	if l := Dist3D(ca, cb); l > d.Cons.MaxLen {
		return fmt.Errorf("noc3d: link length %d exceeds cap %d", l, d.Cons.MaxLen)
	}
	for _, nb := range d.adj[a] {
		if nb == b {
			return fmt.Errorf("noc3d: link exists")
		}
	}
	return nil
}

// AddLink inserts a bidirectional link.
func (d *Design) AddLink(a, b int) error {
	if err := d.CanAdd(a, b); err != nil {
		return err
	}
	d.adj[a] = append(d.adj[a], b)
	d.adj[b] = append(d.adj[b], a)
	d.extra[a]++
	d.extra[b]++
	if a > b {
		a, b = b, a
	}
	d.links = append(d.links, [2]int{a, b})
	d.dirty = true
	return nil
}

// distances lazily recomputes all-pairs BFS hops.
func (d *Design) distances() [][]int16 {
	if !d.dirty {
		return d.dist
	}
	v := d.V()
	dist := make([][]int16, v)
	queue := make([]int, 0, v)
	for s := 0; s < v; s++ {
		row := make([]int16, v)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, nb := range d.adj[u] {
				if row[nb] < 0 {
					row[nb] = row[u] + 1
					queue = append(queue, nb)
				}
			}
		}
		dist[s] = row
	}
	d.dist = dist
	d.dirty = false
	return dist
}

// AvgHops returns the mean shortest-path hop count over ordered pairs.
func (d *Design) AvgHops() float64 {
	dist := d.distances()
	total, pairs := 0, 0
	for s := range dist {
		for t, h := range dist[s] {
			if s == t {
				continue
			}
			total += int(h)
			pairs++
		}
	}
	return float64(total) / float64(pairs)
}

// ---------------------------------------------------------------------------
// search.Problem instantiation

// env adapts Design to search.Environment.
type env struct {
	d *Design
}

func (e *env) Fingerprint() string {
	keys := make([]string, len(e.d.links))
	for i, l := range e.d.links {
		keys[i] = fmt.Sprintf("%d-%d", l[0], l[1])
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func (e *env) Actions() []string {
	var out []string
	v := e.d.V()
	for a := 0; a < v; a++ {
		for b := a + 1; b < v; b++ {
			if e.d.CanAdd(a, b) == nil {
				out = append(out, fmt.Sprintf("%d-%d", a, b))
			}
		}
	}
	return out
}

func parseAction(s string) (int, int) {
	var a, b int
	fmt.Sscanf(s, "%d-%d", &a, &b)
	return a, b
}

func (e *env) Step(action string) float64 {
	a, b := parseAction(action)
	if err := e.d.AddLink(a, b); err != nil {
		return -1 // illegal insertion
	}
	return 0
}

func (e *env) Done() bool { return len(e.d.links) >= e.d.Cons.Budget }

func (e *env) FinalReward() float64 {
	// Reward = hop reduction relative to the base mesh; positive when the
	// inserted links shorten paths.
	base := NewDesign(e.d.N, e.d.Layers, e.d.Cons).AvgHops()
	return base - e.d.AvgHops()
}

// Problem is the search.Problem for 3-D link placement.
type Problem struct {
	N, Layers int
	Cons      Constraints
}

// NewEpisode implements search.Problem.
func (p Problem) NewEpisode() search.Environment {
	return &env{d: NewDesign(p.N, p.Layers, p.Cons)}
}

// Greedy implements search.Problem: insert the link joining the currently
// most distant reachable pair that the constraints allow.
func (p Problem) Greedy(se search.Environment) (string, bool) {
	e := se.(*env)
	dist := e.d.distances()
	bestA, bestB, bestGain := -1, -1, -1
	v := e.d.V()
	for a := 0; a < v; a++ {
		for b := a + 1; b < v; b++ {
			if int(dist[a][b]) <= 1 {
				continue
			}
			if e.d.CanAdd(a, b) != nil {
				continue
			}
			if g := int(dist[a][b]) - 1; g > bestGain {
				bestGain = g
				bestA, bestB = a, b
			}
		}
	}
	if bestA < 0 {
		return "", false
	}
	return fmt.Sprintf("%d-%d", bestA, bestB), true
}

// Priors implements search.Problem: weight candidate links by the path
// length they would shortcut, steering expansion toward useful insertions.
func (p Problem) Priors(se search.Environment, actions []string) []float64 {
	e := se.(*env)
	dist := e.d.distances()
	out := make([]float64, len(actions))
	for i, s := range actions {
		a, b := parseAction(s)
		out[i] = float64(dist[a][b])
	}
	return out
}

// Explore runs the generic searcher on the 3-D problem and returns the
// best design found plus the base-mesh hop count for comparison.
func Explore(n, layers int, cons Constraints, cfg search.Config) (*Design, float64, *search.Result) {
	prob := Problem{N: n, Layers: layers, Cons: cons}
	s := search.New(cfg, prob)
	var best *Design
	s.OnBest(func(se search.Environment, _ search.Outcome) {
		best = se.(*env).d.Clone()
	})
	res := s.Run()
	base := NewDesign(n, layers, cons).AvgHops()
	return best, base, res
}
