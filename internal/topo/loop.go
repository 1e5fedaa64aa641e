// Package topo models routerless network-on-chip topologies built from
// unidirectional rectangular loops on an N×M grid of nodes.
//
// It provides the state representation used by the DRL framework (hop-count
// matrices), connectivity and node-overlapping accounting, and the
// minimum hop count per node pair (DistData), against which the
// cycle-accurate simulator picks each pair's loop for its source-routing
// table.
package topo

import (
	"fmt"
)

// Direction is the circulation direction of packets within a loop.
type Direction uint8

const (
	// Clockwise circulation (dir = 1 in the paper's action encoding).
	Clockwise Direction = iota
	// Counterclockwise circulation (dir = 0).
	Counterclockwise
)

// String returns "CW" or "CCW".
func (d Direction) String() string {
	if d == Clockwise {
		return "CW"
	}
	return "CCW"
}

// Node identifies a grid node by row and column.
type Node struct {
	Row, Col int
}

// ID returns the linear index of the node on an N-column grid.
func (n Node) ID(cols int) int { return n.Row*cols + n.Col }

// NodeFromID is the inverse of Node.ID.
func NodeFromID(id, cols int) Node { return Node{Row: id / cols, Col: id % cols} }

// String renders the node as "(r,c)".
func (n Node) String() string { return fmt.Sprintf("(%d,%d)", n.Row, n.Col) }

// Loop is a rectangular unidirectional ring identified by two diagonal
// corners and a circulation direction. The rectangle spans rows
// [R1, R2] and columns [C1, C2] with R1 < R2 and C1 < C2 after
// normalization; degenerate (single-row or single-column) rectangles are
// not valid loops.
type Loop struct {
	R1, C1, R2, C2 int
	Dir            Direction
}

// NewLoop builds a normalized loop from two diagonal corners. It returns an
// error when the rectangle is degenerate (the paper's "invalid action").
func NewLoop(r1, c1, r2, c2 int, dir Direction) (Loop, error) {
	l := Loop{R1: r1, C1: c1, R2: r2, C2: c2, Dir: dir}
	l.normalize()
	if l.R1 == l.R2 || l.C1 == l.C2 {
		return Loop{}, fmt.Errorf("topo: degenerate loop (%d,%d)-(%d,%d)", r1, c1, r2, c2)
	}
	if l.R1 < 0 || l.C1 < 0 {
		return Loop{}, fmt.Errorf("topo: negative loop corner (%d,%d)-(%d,%d)", r1, c1, r2, c2)
	}
	return l, nil
}

// MustLoop is NewLoop that panics on error; for tests and literals.
func MustLoop(r1, c1, r2, c2 int, dir Direction) Loop {
	l, err := NewLoop(r1, c1, r2, c2, dir)
	if err != nil {
		panic(err)
	}
	return l
}

func (l *Loop) normalize() {
	if l.R1 > l.R2 {
		l.R1, l.R2 = l.R2, l.R1
	}
	if l.C1 > l.C2 {
		l.C1, l.C2 = l.C2, l.C1
	}
}

// Height is the number of rows the loop spans.
func (l Loop) Height() int { return l.R2 - l.R1 + 1 }

// Width is the number of columns the loop spans.
func (l Loop) Width() int { return l.C2 - l.C1 + 1 }

// Len is the number of nodes (and links) on the loop perimeter.
func (l Loop) Len() int { return 2 * (l.Height() + l.Width() - 2) }

// Contains reports whether node n lies on the loop perimeter.
func (l Loop) Contains(n Node) bool {
	if n.Row < l.R1 || n.Row > l.R2 || n.Col < l.C1 || n.Col > l.C2 {
		return false
	}
	return n.Row == l.R1 || n.Row == l.R2 || n.Col == l.C1 || n.Col == l.C2
}

// String renders the loop as "(r1,c1)-(r2,c2)/DIR".
func (l Loop) String() string {
	return fmt.Sprintf("(%d,%d)-(%d,%d)/%s", l.R1, l.C1, l.R2, l.C2, l.Dir)
}

// Nodes returns the perimeter nodes in traversal order starting from the
// top-left corner, following the loop's circulation direction.
func (l Loop) Nodes() []Node {
	out := make([]Node, 0, l.Len())
	// Clockwise order starting at (R1, C1): right along the top, down the
	// right side, left along the bottom, up the left side.
	for c := l.C1; c < l.C2; c++ {
		out = append(out, Node{l.R1, c})
	}
	for r := l.R1; r < l.R2; r++ {
		out = append(out, Node{r, l.C2})
	}
	for c := l.C2; c > l.C1; c-- {
		out = append(out, Node{l.R2, c})
	}
	for r := l.R2; r > l.R1; r-- {
		out = append(out, Node{r, l.C1})
	}
	if l.Dir == Counterclockwise {
		// Reverse traversal order, keeping the start node first.
		rev := make([]Node, 0, len(out))
		rev = append(rev, out[0])
		for i := len(out) - 1; i >= 1; i-- {
			rev = append(rev, out[i])
		}
		out = rev
	}
	return out
}

// IndexOf returns the position of node n along the loop traversal order, or
// -1 when n is not on the loop.
func (l Loop) IndexOf(n Node) int {
	if !l.Contains(n) {
		return -1
	}
	// Clockwise index from the top-left corner.
	h, w := l.Height(), l.Width()
	var cw int
	switch {
	case n.Row == l.R1: // top edge (includes both top corners)
		cw = n.Col - l.C1
	case n.Col == l.C2: // right edge below top-right corner
		cw = (w - 1) + (n.Row - l.R1)
	case n.Row == l.R2: // bottom edge left of bottom-right corner
		cw = (w - 1) + (h - 1) + (l.C2 - n.Col)
	default: // left edge between bottom-left and top-left corners
		cw = 2*(w-1) + (h - 1) + (l.R2 - n.Row)
	}
	if l.Dir == Clockwise {
		return cw
	}
	if cw == 0 {
		return 0
	}
	return l.Len() - cw
}

// Dist returns the number of hops from src to dst traveling along the loop
// in its circulation direction, or -1 when either node is off the loop.
func (l Loop) Dist(src, dst Node) int {
	i, j := l.IndexOf(src), l.IndexOf(dst)
	if i < 0 || j < 0 {
		return -1
	}
	d := j - i
	if d < 0 {
		d += l.Len()
	}
	return d
}
