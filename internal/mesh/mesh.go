// Package mesh provides the conventional router-based 2-D mesh baseline:
// hop-count analytics and topology metadata consumed by the cycle-accurate
// simulator (internal/sim) and the reward function of the DRL environment,
// which compares candidate routerless designs against mesh hop counts.
package mesh

import "routerless/internal/topo"

// Hops returns the minimal (XY-routing) hop count between two nodes in a
// mesh: the Manhattan distance.
func Hops(a, b topo.Node) int {
	dr := a.Row - b.Row
	if dr < 0 {
		dr = -dr
	}
	dc := a.Col - b.Col
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// AverageHops returns the mean Manhattan distance over all ordered pairs of
// distinct nodes in a rows×cols mesh. For an N×N mesh this approaches 2N/3
// for large N (the paper quotes 5.33 for 8×8 and uses this as the reward
// reference).
func AverageHops(rows, cols int) float64 {
	n := rows * cols
	if n < 2 {
		return 0
	}
	total := 0
	for s := 0; s < n; s++ {
		a := topo.NodeFromID(s, cols)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			total += Hops(a, topo.NodeFromID(d, cols))
		}
	}
	return float64(total) / float64(n*(n-1))
}

// XYNextHop returns the next node on the dimension-ordered (X-first, i.e.
// column-first) route from cur to dst. It panics when cur == dst.
func XYNextHop(cur, dst topo.Node) topo.Node {
	switch {
	case cur.Col < dst.Col:
		return topo.Node{Row: cur.Row, Col: cur.Col + 1}
	case cur.Col > dst.Col:
		return topo.Node{Row: cur.Row, Col: cur.Col - 1}
	case cur.Row < dst.Row:
		return topo.Node{Row: cur.Row + 1, Col: cur.Col}
	case cur.Row > dst.Row:
		return topo.Node{Row: cur.Row - 1, Col: cur.Col}
	}
	panic("mesh: XYNextHop called with cur == dst")
}

// Port identifies a mesh router port.
type Port int

// Router ports in fixed order; Local is the NI (injection/ejection) port.
const (
	Local Port = iota
	North      // toward row-1
	South      // toward row+1
	West       // toward col-1
	East       // toward col+1
	NumPorts
)

// String names the port.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case South:
		return "south"
	case West:
		return "west"
	case East:
		return "east"
	}
	return "invalid"
}

// OutputPort returns the router output port used by XY routing at node cur
// for a packet destined to dst.
func OutputPort(cur, dst topo.Node) Port {
	if cur == dst {
		return Local
	}
	next := XYNextHop(cur, dst)
	switch {
	case next.Col > cur.Col:
		return East
	case next.Col < cur.Col:
		return West
	case next.Row > cur.Row:
		return South
	default:
		return North
	}
}

// Neighbor returns the adjacent node through port p, and false when the
// port exits the rows×cols grid.
func Neighbor(n topo.Node, p Port, rows, cols int) (topo.Node, bool) {
	switch p {
	case North:
		n.Row--
	case South:
		n.Row++
	case West:
		n.Col--
	case East:
		n.Col++
	default:
		return n, false
	}
	if n.Row < 0 || n.Row >= rows || n.Col < 0 || n.Col >= cols {
		return n, false
	}
	return n, true
}

// Opposite returns the port on the neighbouring router that faces p.
func Opposite(p Port) Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}
