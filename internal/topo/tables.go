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
	// It is the inverted index driving precise dirty-set maintenance; nil
	// on grids above pairIndexMaxNodes, where callers fall back to the
	// coarser (but still correct) per-node lists.
	pairRects [][]int32
}

// pairIndexMaxNodes bounds the pair→rectangles index to grids where its
// O(Σ perimeter²) footprint stays in the low megabytes (14×14 ≈ 7 MB).
const pairIndexMaxNodes = 196

// Rect is one precomputed rectangle.
type Rect struct {
	R1, C1, R2, C2 int
	// Nodes holds the perimeter node IDs in clockwise traversal order
	// starting at the top-left corner — the Loop.Nodes order for
	// Dir == Clockwise. Counterclockwise distances follow from the same
	// list: distCCW(i→j) = L − distCW(i→j) for i ≠ j.
	Nodes []int32
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
		rectID: make([]int32, n*n),
		at:     make([][]int32, n),
	}
	for i := range g.rectID {
		g.rectID[i] = -1
	}
	// Enumeration order matches the greedy scan of Algorithm 1:
	// (x1, y1, x2, y2) ascending.
	for r1 := 0; r1 < rows-1; r1++ {
		for c1 := 0; c1 < cols-1; c1++ {
			for r2 := r1 + 1; r2 < rows; r2++ {
				for c2 := c1 + 1; c2 < cols; c2++ {
					idx := int32(len(g.rects))
					g.rectID[(r1*cols+c1)*n+(r2*cols+c2)] = idx
					g.rects = append(g.rects, Rect{
						R1: r1, C1: c1, R2: r2, C2: c2,
						Nodes: perimeterIDs(r1, c1, r2, c2, cols),
					})
					for _, id := range g.rects[idx].Nodes {
						g.at[id] = append(g.at[id], idx)
					}
				}
			}
		}
	}
	if n <= pairIndexMaxNodes {
		g.pairRects = make([][]int32, n*n)
		for idx := range g.rects {
			ids := g.rects[idx].Nodes
			for _, u := range ids {
				row := int(u) * n
				for _, v := range ids {
					if u == v {
						continue
					}
					g.pairRects[row+int(v)] = append(g.pairRects[row+int(v)], int32(idx))
				}
			}
		}
	}
	return g
}

// perimeterIDs lists the rectangle's perimeter node IDs clockwise from the
// top-left corner, mirroring Loop.Nodes for a clockwise loop.
func perimeterIDs(r1, c1, r2, c2, cols int) []int32 {
	h, w := r2-r1+1, c2-c1+1
	out := make([]int32, 0, 2*(h+w-2))
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
// reads dist(u,v). Returns nil slices per pair when the pair index is
// disabled for this grid size (check HasPairIndex first). The returned
// slice must not be mutated.
func (g *GridTables) RectsAtPair(packed int32) []int32 { return g.pairRects[packed] }

// HasPairIndex reports whether the pair→rectangles index was built for
// this grid (it is skipped on very large grids to bound memory).
func (g *GridTables) HasPairIndex() bool { return g.pairRects != nil }

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
