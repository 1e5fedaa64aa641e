package topo

import "sync"

// GridTables is the precomputed rectangle geometry of one grid size: every
// non-degenerate rectangle that fits the grid, each rectangle's perimeter
// node IDs in traversal order, and, per node, the rectangles whose
// perimeter contains it. One table is built per (rows, cols) pair, cached
// for the process lifetime, and shared by every Topology (and every
// concurrent search environment) on that grid — all fields are immutable
// after construction, so no synchronization is needed to read them.
//
// The tables are what turn the O(N⁴)-rectangle scans of Algorithm 1 into
// incremental work: rectangle enumeration order matches the greedy scan,
// RectsAt answers "which rectangles does this node dirty" in O(1), and the
// perimeter ID lists remove every per-rectangle Nodes() allocation from the
// hot path.
type GridTables struct {
	rows, cols int
	rects      []Rect
	// rectID maps corner pair -> rectangle index: entry
	// (r1*cols+c1)*n + (r2*cols+c2) for the normalized corners, -1 for
	// non-rectangles.
	rectID []int32
	// at[nodeID] lists the indices of rectangles whose perimeter includes
	// the node.
	at [][]int32
	// pairRects[u*n+v] lists the rectangles whose perimeter includes both
	// u and v — the rectangles whose greedy score depends on dist(u,v).
	// It is the inverted index driving the score table's incremental
	// maintenance. Its O(Σ perimeter²) footprint dominates the tables:
	// about 19 MB in all on a 14×14 grid, 28 MB on 15×15 and 82 MB on
	// 18×18, the largest side topo serves. Every row is a slice of one
	// backing array, sized by a counting pass. Callers read only u < v, but
	// storing that half alone made the search benchmarks' setup slower
	// (the smaller heap moves the garbage collector's pacing), so both
	// orders stay. Storing the indices as uint16 (18×18 has 23,409
	// rectangles) slowed that setup the same way, by 13–17%: at 10×10 it
	// takes a search process's live heap from 2.7 to 1.9 MB, so the next
	// collection is due at the 4 MB floor instead of at 5.7 MB, and one
	// search setup runs one more cycle.
	pairRects [][]int32
}

// Rect is one precomputed rectangle.
type Rect struct {
	R1, C1, R2, C2 int
	// Nodes holds the perimeter node IDs in clockwise traversal order
	// starting at the top-left corner — the Loop.Nodes order for
	// Dir == Clockwise. Counterclockwise distances follow from the same
	// list: distCCW(i→j) = L − distCW(i→j) for i ≠ j.
	Nodes []int32
	// Ring is Nodes followed by Nodes again, so Ring[i+k] is the node k
	// clockwise steps on from Nodes[i] for every 0 ≤ k < L without a
	// wraparound test (the vector Imprv kernel reads it). Nodes is its
	// first half.
	Ring []int32
}

// Loop returns the rectangle as a Loop in the given direction.
func (r *Rect) Loop(dir Direction) Loop {
	return Loop{R1: r.R1, C1: r.C1, R2: r.R2, C2: r.C2, Dir: dir}
}

var (
	tablesMu    sync.Mutex
	tablesCache = map[[2]int]*GridTables{}
)

// Tables returns the shared precomputed rectangle tables for a rows×cols
// grid, building them on first use. The result is immutable and safe for
// unsynchronized concurrent use.
func Tables(rows, cols int) *GridTables {
	key := [2]int{rows, cols}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if g, ok := tablesCache[key]; ok {
		return g
	}
	g := buildTables(rows, cols)
	tablesCache[key] = g
	return g
}

func buildTables(rows, cols int) *GridTables {
	n := rows * cols
	g := &GridTables{
		rows:   rows,
		cols:   cols,
		rects:  make([]Rect, 0, rows*(rows-1)/2*(cols*(cols-1)/2)),
		rectID: make([]int32, n*n),
	}
	for i := range g.rectID {
		g.rectID[i] = -1
	}
	// Enumeration order matches the greedy scan of Algorithm 1:
	// (x1, y1, x2, y2) ascending. Each list below is a slice of one
	// backing array per table, sized before it is filled.
	perim := 0
	for r1 := 0; r1 < rows-1; r1++ {
		for c1 := 0; c1 < cols-1; c1++ {
			for r2 := r1 + 1; r2 < rows; r2++ {
				for c2 := c1 + 1; c2 < cols; c2++ {
					g.rectID[(r1*cols+c1)*n+(r2*cols+c2)] = int32(len(g.rects))
					g.rects = append(g.rects, Rect{R1: r1, C1: c1, R2: r2, C2: c2})
					perim += 2 * (r2 - r1 + c2 - c1)
				}
			}
		}
	}
	nodes := make([]int32, 0, 2*perim)
	for i := range g.rects {
		r := &g.rects[i]
		start := len(nodes)
		nodes = appendPerimeter(nodes, r.R1, r.C1, r.R2, r.C2, cols)
		l := len(nodes) - start
		nodes = append(nodes, nodes[start:start+l]...)
		r.Nodes = nodes[start : start+l : start+l]
		r.Ring = nodes[start:len(nodes):len(nodes)]
	}
	g.at = rowsOf(n, func(add func(key int, v int32)) {
		for idx := range g.rects {
			for _, u := range g.rects[idx].Nodes {
				add(int(u), int32(idx))
			}
		}
	})
	// Node by node, so the writes stay in the adjacent rows of one node.
	g.pairRects = rowsOf(n*n, func(add func(key int, v int32)) {
		for u, rects := range g.at {
			for _, idx := range rects {
				for _, v := range g.rects[idx].Nodes {
					if int(v) != u {
						add(u*n+int(v), idx)
					}
				}
			}
		}
	})
	return g
}

// rowsOf builds one row per key from the (key, value) pairs emit hands to
// add, each row keeping its values in emission order. emit runs twice,
// first to count each row and then to fill it, so all rows are slices of
// one backing array.
func rowsOf(keys int, emit func(add func(key int, v int32))) [][]int32 {
	lens, total := make([]int, keys), 0
	emit(func(k int, _ int32) { lens[k]++; total++ })
	back := make([]int32, total)
	rows := make([][]int32, keys)
	off := 0
	for k, l := range lens {
		rows[k] = back[off : off : off+l]
		off += l
	}
	emit(func(k int, v int32) { rows[k] = append(rows[k], v) })
	return rows
}

// appendPerimeter appends the rectangle's perimeter node IDs clockwise from
// the top-left corner, mirroring Loop.Nodes for a clockwise loop.
func appendPerimeter(out []int32, r1, c1, r2, c2, cols int) []int32 {
	for c := c1; c < c2; c++ {
		out = append(out, int32(r1*cols+c))
	}
	for r := r1; r < r2; r++ {
		out = append(out, int32(r*cols+c2))
	}
	for c := c2; c > c1; c-- {
		out = append(out, int32(r2*cols+c))
	}
	for r := r2; r > r1; r-- {
		out = append(out, int32(r*cols+c1))
	}
	return out
}

// NumRects returns the number of rectangles on the grid.
func (g *GridTables) NumRects() int { return len(g.rects) }

// Rects exposes the rectangle list in greedy-scan enumeration order. The
// returned slice and everything it references must not be mutated.
func (g *GridTables) Rects() []Rect { return g.rects }

// RectIndex returns the index of the rectangle with l's corners, or -1
// when the corners do not form a grid rectangle.
func (g *GridTables) RectIndex(l Loop) int {
	n := g.rows * g.cols
	a := l.R1*g.cols + l.C1
	b := l.R2*g.cols + l.C2
	if a < 0 || b < 0 || a >= n || b >= n || l.R2 >= g.rows || l.C2 >= g.cols {
		return -1
	}
	return int(g.rectID[a*n+b])
}

// RectsAt lists the rectangles whose perimeter contains the node. The
// returned slice must not be mutated.
func (g *GridTables) RectsAt(nodeID int) []int32 { return g.at[nodeID] }

// RectsAtPair lists the rectangles whose perimeter contains both nodes of
// the packed pair key u*N+v — exactly the rectangles whose greedy score
// reads dist(u,v). The returned slice must not be mutated.
func (g *GridTables) RectsAtPair(packed int32) []int32 { return g.pairRects[packed] }

// NodesOf returns the clockwise perimeter node IDs of l's rectangle, or
// nil when l is not a rectangle of this grid. The slice must not be
// mutated.
func (g *GridTables) NodesOf(l Loop) []int32 {
	ri := g.RectIndex(l)
	if ri < 0 {
		return nil
	}
	return g.rects[ri].Nodes
}
