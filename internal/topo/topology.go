package topo

import (
	"errors"
	"fmt"
	"strconv"
)

// ErrIllegal is returned when adding a loop would violate the node
// overlapping cap (the paper's "illegal action").
var ErrIllegal = errors.New("topo: loop violates node overlapping cap")

// ErrRepetitive is returned when adding a loop that is already present
// (the paper's "repetitive action").
var ErrRepetitive = errors.New("topo: duplicate loop")

// ErrOutOfBounds is returned when a loop does not fit on the grid.
var ErrOutOfBounds = errors.New("topo: loop out of grid bounds")

// Topology is a routerless NoC: an N×M node grid plus a set of
// unidirectional rectangular loops. The zero value is unusable; construct
// with New.
//
// Every aggregate a search loop polls — pairwise distances, connected-pair
// count, hop total, the DNN state matrix, the canonical fingerprint — is
// maintained incrementally by AddLoop, so the per-query cost is O(1) (or a
// flat copy) instead of an O(N²) rescan.
type Topology struct {
	rows, cols int
	overlapCap int // 0 means unconstrained
	tab        *GridTables
	loops      []Loop
	// loopSet mirrors loops for O(1) duplicate checks.
	loopSet map[Loop]struct{}
	// overlap[nodeID] = number of loops whose perimeter includes the node.
	overlap []int
	// dist caches the minimum directed loop distance between every node
	// pair (row-major [src*N+dst]), maintained incrementally by AddLoop;
	// -1 means unconnected. It makes Dist O(1), which the greedy search
	// of Algorithm 1 and the simulator's routing tables rely on.
	dist []int16
	// connPairs counts ordered pairs of distinct nodes with dist >= 0, and
	// hopTotal sums their distances; together they answer AverageHops
	// and FullyConnected without scanning dist.
	connPairs int
	hopTotal  int
	// hopM is the paper's state-matrix encoding (HopMatrixInto), materialized
	// on first request and updated in place as dist entries improve.
	hopM []float64
	// fpLoops holds the loop multiset in canonical order; fpStr caches the
	// rendered fingerprint, rebuilt lazily into fpBuf when fpDirty.
	fpLoops []Loop
	fpBuf   []byte
	fpStr   string
	fpDirty bool
	// changedPairs, newPairs and satNodes record the most recent AddLoop's
	// exact perturbation: packed src*N+dst keys of dist entries that
	// improved, the subset of those that went from unconnected to
	// connected, and nodes whose overlap reached the cap during that add.
	// Incremental consumers (the greedy score cache) invalidate only what
	// these name. All are reused buffers, valid until the next mutation.
	changedPairs []int32
	newPairs     []int32
	satNodes     []int32
}

// New returns an empty topology on a rows×cols grid. overlapCap limits the
// number of loops that may pass through any single node; pass 0 for
// unconstrained.
func New(rows, cols, overlapCap int) *Topology {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("topo: invalid grid %dx%d", rows, cols))
	}
	n := rows * cols
	t := &Topology{
		rows:       rows,
		cols:       cols,
		overlapCap: overlapCap,
		tab:        Tables(rows, cols),
		loopSet:    make(map[Loop]struct{}),
		overlap:    make([]int, n),
		dist:       make([]int16, n*n),
	}
	for i := range t.dist {
		t.dist[i] = -1
	}
	for i := 0; i < n; i++ {
		t.dist[i*n+i] = 0
	}
	return t
}

// NewSquare is New(n, n, cap).
func NewSquare(n, overlapCap int) *Topology { return New(n, n, overlapCap) }

// Rows returns the number of grid rows.
func (t *Topology) Rows() int { return t.rows }

// Cols returns the number of grid columns.
func (t *Topology) Cols() int { return t.cols }

// N returns the total node count.
func (t *Topology) N() int { return t.rows * t.cols }

// OverlapCap returns the node overlapping constraint (0 = unconstrained).
func (t *Topology) OverlapCap() int { return t.overlapCap }

// SetOverlapCap changes the constraint for future AddLoop calls. It does
// not retroactively validate existing loops.
func (t *Topology) SetOverlapCap(cap int) { t.overlapCap = cap }

// Tables returns the shared precomputed rectangle tables for this grid.
func (t *Topology) Tables() *GridTables { return t.tab }

// Loops returns the loop set. The returned slice must not be mutated.
func (t *Topology) Loops() []Loop { return t.loops }

// NumLoops returns the number of loops.
func (t *Topology) NumLoops() int { return len(t.loops) }

// Overlap returns the number of loops passing through node n.
func (t *Topology) Overlap(n Node) int { return t.overlap[n.ID(t.cols)] }

// MaxOverlap returns the maximum node overlapping across the grid.
func (t *Topology) MaxOverlap() int {
	m := 0
	for _, v := range t.overlap {
		if v > m {
			m = v
		}
	}
	return m
}

// HasLoop reports whether an identical loop is already present. It is an
// O(1) set lookup.
func (t *Topology) HasLoop(l Loop) bool {
	_, ok := t.loopSet[l]
	return ok
}

// fits reports whether the loop lies within the grid.
func (t *Topology) fits(l Loop) bool {
	return l.R1 >= 0 && l.C1 >= 0 && l.R2 < t.rows && l.C2 < t.cols
}

// CheckAdd validates adding loop l without mutating the topology. It
// returns nil when the addition is legal, or one of ErrOutOfBounds,
// ErrRepetitive, ErrIllegal.
func (t *Topology) CheckAdd(l Loop) error {
	if !t.fits(l) {
		return ErrOutOfBounds
	}
	if t.HasLoop(l) {
		return ErrRepetitive
	}
	if t.overlapCap > 0 {
		for _, id := range t.tab.NodesOf(l) {
			if t.overlap[id]+1 > t.overlapCap {
				return ErrIllegal
			}
		}
	}
	return nil
}

// AddLoop appends loop l, enforcing bounds, duplication and the overlap cap.
func (t *Topology) AddLoop(l Loop) error {
	if err := t.CheckAdd(l); err != nil {
		return err
	}
	t.addUnchecked(l)
	return nil
}

// addUnchecked appends l and updates every incremental structure: per-node
// overlap counts, the pairwise-distance cache with its connected-pair count
// and hop total, the materialized state matrix (when present), and the
// canonical fingerprint order.
func (t *Topology) addUnchecked(l Loop) {
	t.loops = append(t.loops, l)
	t.loopSet[l] = struct{}{}
	t.changedPairs = t.changedPairs[:0]
	t.newPairs = t.newPairs[:0]
	t.satNodes = t.satNodes[:0]
	ids := t.tab.NodesOf(l)
	for _, id := range ids {
		t.overlap[id]++
		if t.overlap[id] == t.overlapCap {
			t.satNodes = append(t.satNodes, id)
		}
	}
	n := t.N()
	ll := len(ids)
	ccw := l.Dir == Counterclockwise
	for i, u := range ids {
		row := int(u) * n
		for j, v := range ids {
			if i == j {
				continue
			}
			// ids is the clockwise traversal; the index gap is the
			// directed distance, complemented for counterclockwise loops.
			d := j - i
			if d < 0 {
				d += ll
			}
			if ccw {
				d = ll - d
			}
			cur := t.dist[row+int(v)]
			if cur >= 0 && int16(d) >= cur {
				continue
			}
			if cur < 0 {
				t.connPairs++
				t.hopTotal += d
				t.newPairs = append(t.newPairs, int32(row)+v)
			} else {
				t.hopTotal += d - int(cur)
			}
			t.dist[row+int(v)] = int16(d)
			t.changedPairs = append(t.changedPairs, int32(row)+v)
			if t.hopM != nil {
				t.setHopM(int(u), int(v), float64(d))
			}
		}
	}
	t.fpInsert(l)
}

// Reset removes every loop in place, retaining all allocated capacity so a
// reused Topology accepts a fresh loop sequence without heap allocation.
func (t *Topology) Reset() {
	t.loops = t.loops[:0]
	clear(t.loopSet)
	for i := range t.overlap {
		t.overlap[i] = 0
	}
	n := t.N()
	for i := range t.dist {
		t.dist[i] = -1
	}
	for i := 0; i < n; i++ {
		t.dist[i*n+i] = 0
	}
	t.connPairs, t.hopTotal = 0, 0
	if t.hopM != nil {
		t.fillHopM()
	}
	t.fpLoops = t.fpLoops[:0]
	t.fpStr = ""
	t.fpDirty = false
	t.changedPairs = t.changedPairs[:0]
	t.newPairs = t.newPairs[:0]
	t.satNodes = t.satNodes[:0]
}

// RemoveLoop removes the loop at index i. It is used by evolutionary
// baselines (IMR) and failure-injection tests.
func (t *Topology) RemoveLoop(i int) {
	if i < 0 || i >= len(t.loops) {
		panic(fmt.Sprintf("topo: RemoveLoop index %d out of range", i))
	}
	t.loops = append(t.loops[:i:i], t.loops[i+1:]...)
	t.reindex()
}

func (t *Topology) reindex() {
	loops := append([]Loop(nil), t.loops...)
	t.Reset()
	for _, l := range loops {
		t.addUnchecked(l)
	}
}

// Clone returns a deep copy. The immutable grid tables are shared.
func (t *Topology) Clone() *Topology {
	c := New(t.rows, t.cols, t.overlapCap)
	c.loops = append([]Loop(nil), t.loops...)
	for l := range t.loopSet {
		c.loopSet[l] = struct{}{}
	}
	copy(c.overlap, t.overlap)
	copy(c.dist, t.dist)
	c.connPairs, c.hopTotal = t.connPairs, t.hopTotal
	if t.hopM != nil {
		c.hopM = append([]float64(nil), t.hopM...)
	}
	c.fpLoops = append([]Loop(nil), t.fpLoops...)
	c.fpStr, c.fpDirty = t.fpStr, t.fpDirty
	return c
}

// Dist returns the minimum hop count from src to dst over all loops that
// contain both, or -1 when the pair is unconnected. The source node itself
// has distance 0. It reads the incremental cache and costs O(1).
func (t *Topology) Dist(src, dst Node) int {
	return int(t.dist[src.ID(t.cols)*t.N()+dst.ID(t.cols)])
}

// DistData exposes the raw pairwise-distance cache, row-major [src*N+dst]
// with -1 meaning unconnected, for read-only hot-loop access. Callers must
// not mutate it.
func (t *Topology) DistData() []int16 { return t.dist }

// LastAddChangedPairs returns the packed src*N+dst keys of the dist
// entries improved by the most recent AddLoop. The slice is a reused
// buffer, valid only until the next mutation, and must not be mutated.
func (t *Topology) LastAddChangedPairs() []int32 { return t.changedPairs }

// LastAddNewPairs returns the subset of LastAddChangedPairs whose dist
// entry went from unconnected (-1) to connected — the pairs that lower
// CheckCount for every rectangle containing both endpoints. Same reuse
// caveats as LastAddChangedPairs.
func (t *Topology) LastAddNewPairs() []int32 { return t.newPairs }

// LastAddSaturatedNodes returns the nodes whose overlap count reached the
// cap during the most recent AddLoop — the only nodes through which
// rectangle legality can have flipped. Same reuse caveats as
// LastAddChangedPairs.
func (t *Topology) LastAddSaturatedNodes() []int32 { return t.satNodes }

// FullyConnected reports whether every ordered pair of distinct nodes is
// joined by at least one loop. It reads the incremental pair count: O(1).
func (t *Topology) FullyConnected() bool {
	n := t.N()
	return t.connPairs == n*(n-1)
}

// UnconnectedPairs returns up to max ordered pairs lacking a connecting
// loop; pass max <= 0 for all.
func (t *Topology) UnconnectedPairs(max int) [][2]Node {
	var out [][2]Node
	for s := 0; s < t.N(); s++ {
		src := NodeFromID(s, t.cols)
		for d := 0; d < t.N(); d++ {
			if s == d {
				continue
			}
			dst := NodeFromID(d, t.cols)
			if t.Dist(src, dst) < 0 {
				out = append(out, [2]Node{src, dst})
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// AverageHops returns the mean loop distance over all connected ordered
// pairs and the number of unconnected pairs. The paper's "average hop
// count" metric is this mean on a fully connected topology. Both values
// come from incrementally maintained totals: O(1).
func (t *Topology) AverageHops() (mean float64, unconnected int) {
	n := t.N()
	unconnected = n*(n-1) - t.connPairs
	if t.connPairs == 0 {
		return 0, unconnected
	}
	return float64(t.hopTotal) / float64(t.connPairs), unconnected
}

// AveragePathDiversity returns the mean number of loops connecting an
// ordered pair of distinct nodes, the paper's §6.7 reliability metric. A
// loop of length L joins each of its L·(L−1) ordered node pairs exactly
// once, so the sum over pairs is Σ L·(L−1) over the loops.
func (t *Topology) AveragePathDiversity() float64 {
	n := t.N()
	total := 0
	for _, l := range t.loops {
		total += l.Len() * (l.Len() - 1)
	}
	return float64(total) / float64(n*(n-1))
}

// fpInsert places l at its canonical position, keeping fpLoops sorted so
// Fingerprint never sorts. The binary search is hand-rolled to keep
// AddLoop allocation-free.
func (t *Topology) fpInsert(l Loop) {
	lo, hi := 0, len(t.fpLoops)
	for lo < hi {
		mid := (lo + hi) / 2
		if loopLess(t.fpLoops[mid], l) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.fpLoops = append(t.fpLoops, Loop{})
	copy(t.fpLoops[lo+1:], t.fpLoops[lo:])
	t.fpLoops[lo] = l
	t.fpDirty = true
}

// loopLess is the canonical fingerprint order: corner coordinates, then
// direction.
func loopLess(a, b Loop) bool {
	if a.R1 != b.R1 {
		return a.R1 < b.R1
	}
	if a.C1 != b.C1 {
		return a.C1 < b.C1
	}
	if a.R2 != b.R2 {
		return a.R2 < b.R2
	}
	if a.C2 != b.C2 {
		return a.C2 < b.C2
	}
	return a.Dir < b.Dir
}

// Fingerprint returns a canonical string for the loop multiset, used as a
// state key by the MCTS. The canonical order is maintained incrementally
// by AddLoop and the rendered string is cached, so repeated calls on an
// unchanged topology are allocation-free.
func (t *Topology) Fingerprint() string {
	if !t.fpDirty {
		return t.fpStr
	}
	b := t.fpBuf[:0]
	for _, l := range t.fpLoops {
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(l.R1), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(l.C1), 10)
		b = append(b, ")-("...)
		b = strconv.AppendInt(b, int64(l.R2), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(l.C2), 10)
		b = append(b, ')', '/')
		if l.Dir == Clockwise {
			b = append(b, "CW"...)
		} else {
			b = append(b, "CCW"...)
		}
		b = append(b, ';')
	}
	t.fpBuf = b
	t.fpStr = string(b)
	t.fpDirty = false
	return t.fpStr
}
