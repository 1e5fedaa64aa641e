// Package noc3d demonstrates the framework's broad applicability (§6.8):
// the paper's first suggested application is 3-D NoC design, where prior
// small-world approaches (Das et al.) inserted long-range links with a
// limited learning method. Here the same exploration machinery used for
// routerless loop placement — the generic searcher of internal/search —
// places long-range intra-layer links and inter-layer vias on a 3-D mesh
// under port, link-length and budget constraints, minimizing average hop
// count. The link-placement machinery is search.Graph and
// search.Placement; this package adds the mesh, the length rule and the
// hop-count metric.
package noc3d

import (
	"fmt"

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
	*search.Graph
	N, Layers int
}

// NewDesign builds the base n×n×layers 3-D mesh.
func NewDesign(n, layers int, cons Constraints) *Design {
	if n < 2 || layers < 1 {
		panic(fmt.Sprintf("noc3d: invalid grid %dx%dx%d", n, n, layers))
	}
	adj := make([][]int, n*n*layers)
	coords := make([]Coord, len(adj))
	for id := range adj {
		c := CoordFromID(id, n)
		coords[id] = c
		for _, nb := range []Coord{
			{c.X + 1, c.Y, c.Z}, {c.X - 1, c.Y, c.Z},
			{c.X, c.Y + 1, c.Z}, {c.X, c.Y - 1, c.Z},
			{c.X, c.Y, c.Z + 1}, {c.X, c.Y, c.Z - 1},
		} {
			if nb.X < 0 || nb.X >= n || nb.Y < 0 || nb.Y >= n || nb.Z < 0 || nb.Z >= layers {
				continue
			}
			adj[id] = append(adj[id], nb.ID(n, layers))
		}
	}
	tooLong := func(a, b int) string {
		if Dist3D(coords[a], coords[b]) > cons.MaxLen {
			return "link longer than the length cap"
		}
		return ""
	}
	return &Design{Graph: search.NewGraph(adj, cons.Budget, cons.ExtraPorts, tooLong), N: n, Layers: layers}
}

// AvgHops returns the mean shortest-path hop count over ordered pairs.
func (d Design) AvgHops() float64 {
	total, pairs := 0, 0
	for s := 0; s < d.V(); s++ {
		for t := 0; t < d.V(); t++ {
			if s != t {
				total += d.Dist(s, t)
				pairs++
			}
		}
	}
	return float64(total) / float64(pairs)
}

// Explore runs the generic searcher on the 3-D problem and returns the
// best design found plus the base-mesh hop count for comparison. The
// reward is the hop reduction relative to the base mesh.
func Explore(n, layers int, cons Constraints, cfg search.Config) (*Design, float64, *search.Result) {
	base := NewDesign(n, layers, cons)
	hops := base.AvgHops()
	best, res := search.Placement{
		Base:   base.Clone,
		Reward: func(g *search.Graph) float64 { return hops - Design{Graph: g}.AvgHops() },
	}.Explore(cfg)
	return &Design{Graph: best, N: n, Layers: layers}, hops, res
}
