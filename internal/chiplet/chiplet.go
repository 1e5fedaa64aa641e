// Package chiplet is the second broad-applicability instantiation (§6.8):
// the paper suggests using the framework to "improve the latency and
// throughput of chiplet networks by exploring novel interconnect
// structures" over silicon interposers. The model here: several chiplets,
// each an internal mesh, sit on an interposer; every node can reach its
// chiplet's boundary bumps, and the exploration places a budget of
// interposer links between boundary bumps of different chiplets to
// minimize the average inter-chiplet hop count. The link-placement
// machinery is search.Graph and search.Placement; this package adds the
// package geometry, the bump rules and the inter-chiplet metric.
package chiplet

import "routerless/internal/search"

// System describes the package geometry: a ChipletsX×ChipletsY grid of
// chiplets, each an M×M mesh of cores.
type System struct {
	ChipletsX, ChipletsY int
	M                    int // cores per chiplet side
	// BumpPorts caps interposer links per boundary core; LinkBudget caps
	// total interposer links.
	BumpPorts  int
	LinkBudget int
}

// DefaultSystem returns a 2×2 four-chiplet package of 3×3 meshes.
func DefaultSystem() System {
	return System{ChipletsX: 2, ChipletsY: 2, M: 3, BumpPorts: 2, LinkBudget: 6}
}

// Cores returns the total core count.
func (s System) Cores() int { return s.ChipletsX * s.ChipletsY * s.M * s.M }

// Core identifies one core by chiplet and local position.
type Core struct {
	CX, CY int // chiplet coordinates
	X, Y   int // local mesh coordinates
}

// ID linearizes a core.
func (s System) ID(c Core) int {
	chip := c.CY*s.ChipletsX + c.CX
	return chip*s.M*s.M + c.Y*s.M + c.X
}

// CoreFromID inverts ID.
func (s System) CoreFromID(id int) Core {
	per := s.M * s.M
	chip := id / per
	local := id % per
	return Core{
		CX: chip % s.ChipletsX, CY: chip / s.ChipletsX,
		X: local % s.M, Y: local / s.M,
	}
}

// Boundary reports whether the core sits on its chiplet's edge (and can
// host a µbump to the interposer).
func (s System) Boundary(c Core) bool {
	return c.X == 0 || c.Y == 0 || c.X == s.M-1 || c.Y == s.M-1
}

// Design is a chiplet system plus placed interposer links.
type Design struct {
	*search.Graph
	Sys System
}

// NewDesign builds the base system: chiplet-internal meshes only, so
// inter-chiplet pairs start unreachable until interposer links exist.
func NewDesign(sys System) *Design {
	adj := make([][]int, sys.Cores())
	chip := make([]int, len(adj))
	bump := make([]bool, len(adj))
	for id := range adj {
		c := sys.CoreFromID(id)
		chip[id], bump[id] = c.CY*sys.ChipletsX+c.CX, sys.Boundary(c)
		for _, nb := range []Core{
			{c.CX, c.CY, c.X + 1, c.Y}, {c.CX, c.CY, c.X - 1, c.Y},
			{c.CX, c.CY, c.X, c.Y + 1}, {c.CX, c.CY, c.X, c.Y - 1},
		} {
			if nb.X < 0 || nb.X >= sys.M || nb.Y < 0 || nb.Y >= sys.M {
				continue
			}
			adj[id] = append(adj[id], sys.ID(nb))
		}
	}
	bumps := func(a, b int) string {
		switch {
		case chip[a] == chip[b]:
			return "interposer links join different chiplets"
		case !bump[a] || !bump[b]:
			return "links attach at boundary bumps only"
		}
		return ""
	}
	return &Design{Graph: search.NewGraph(adj, sys.LinkBudget, sys.BumpPorts, bumps), Sys: sys}
}

// Connected reports whether every core pair is reachable.
func (d Design) Connected() bool {
	for s := 0; s < d.V(); s++ {
		for t := 0; t < d.V(); t++ {
			if d.Dist(s, t) < 0 {
				return false
			}
		}
	}
	return true
}

// AvgInterChipletHops returns the mean hop count over reachable
// inter-chiplet core pairs; unreachable pairs are charged penalty hops.
func (d Design) AvgInterChipletHops(penalty float64) float64 {
	total := 0.0
	pairs := 0
	per := d.Sys.M * d.Sys.M // a chiplet's cores have consecutive ids
	for s := 0; s < d.V(); s++ {
		first := s / per * per
		for t := 0; t < d.V(); t++ {
			if t >= first && t < first+per {
				continue
			}
			pairs++
			if h := d.Dist(s, t); h < 0 {
				total += penalty
			} else {
				total += float64(h)
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// Explore runs the searcher and returns the best design. The reward is
// the negated inter-chiplet hop count, charging an unreachable pair 4·cores
// hops.
func Explore(sys System, cfg search.Config) (*Design, *search.Result) {
	penalty := float64(4 * sys.Cores())
	best, res := search.Placement{
		Base:   NewDesign(sys).Clone,
		Reward: func(g *search.Graph) float64 { return -Design{Graph: g, Sys: sys}.AvgInterChipletHops(penalty) },
	}.Explore(cfg)
	return &Design{Graph: best, Sys: sys}, res
}
