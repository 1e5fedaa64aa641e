package rl

import (
	"math"

	"routerless/internal/topo"
)

// scoreTable caches one Algorithm 1 evaluation per grid rectangle: the
// legality of each direction, CheckCount, and the best Imprv with its
// direction. A full greedy scan then reduces to an argmax over the cached
// rows.
//
// The cache stays valid through the add's exact perturbation: a
// rectangle's score reads only the dist entries between its own perimeter
// nodes, its nodes' overlap counts relative to the cap, and its own
// membership in the loop set. After AddLoop, therefore:
//
//   - count is adjusted in place: a dist entry going from unconnected to
//     connected decrements CheckCount of exactly the rectangles containing
//     both endpoints (found through the precomputed pair→rectangles
//     index). Integer and order-independent, so the maintained value is
//     exactly what a recount would produce.
//   - imprv is invalidated (impOK cleared) for rectangles containing both
//     endpoints of any improved dist entry, and recomputed lazily — only
//     when the argmax reaches a rectangle that could still win.
//   - legality is cleared in place: overlap only grows, so a node whose
//     overlap just reached the cap makes both directions of every
//     rectangle through it illegal, and the added loop makes its own
//     direction of its rectangle a duplicate. Legality flips nowhere else.
//
// Between resets a design only gains loops, so every dist entry only
// shrinks and every legality flag only goes from true to false. Each Imprv
// term max(0, cur − d) can therefore only fall, and a memoized imprv whose
// impOK was cleared stays an upper bound on the current value. The argmax
// uses that bound to skip rectangles that cannot win a tie.
//
// This makes the per-step cost proportional to the perturbed region
// instead of the whole O(N⁴) design space. On grids too large for the
// pair index the marking falls back to fully re-scoring every rectangle
// sharing a node with the added loop — a strict superset, still sound.
//
// Cached results equal bruteGreedySearch's (the oracle in oracle_test.go)
// bit for bit, because Imprv is a sum of integers that float64 adds
// exactly in any order (see ensureImprv) — the parity the property tests
// pin.
type scoreTable struct {
	tab      *topo.GridTables
	sc       []rectScore
	dirty    []int32
	inDirty  []bool
	allDirty bool
	// pairNew is noteAdded's scratch over unordered pair keys: how many
	// of the pair's two directions the last add newly connected, or -1
	// once the pair's rectangles have been walked. Zero between adds; nil
	// without the pair index.
	pairNew []int8
	// Constraint snapshot the scores were computed under; sync invalidates
	// everything when a caller moves either knob between scans.
	maxLoopLen int
	overlapCap int
}

// rectScore is one cached evaluation. cwOK/ccwOK record per-direction
// legality (length constraint, duplication, overlap cap); count is
// CheckCount, maintained incrementally; imprv/dir memoize the winning
// Imprv. imprv is always an upper bound on the current Imprv — noBound
// until first computed — and exact while impOK is set.
type rectScore struct {
	imprv int32
	count int32
	dir   topo.Direction
	cwOK  bool
	ccwOK bool
	impOK bool
}

// noBound is the trivial upper bound rescore leaves in imprv.
const noBound = math.MaxInt32

// scores returns the environment's score table, fully synchronized with
// the current topology; it is built (all-dirty) on first use.
func (e *Env) scoresSynced() *scoreTable {
	s := e.scores
	if s == nil {
		tab := e.topo.Tables()
		s = &scoreTable{
			tab:        tab,
			sc:         make([]rectScore, tab.NumRects()),
			inDirty:    make([]bool, tab.NumRects()),
			allDirty:   true,
			maxLoopLen: e.MaxLoopLen,
			overlapCap: e.topo.OverlapCap(),
		}
		if tab.HasPairIndex() {
			s.pairNew = make([]int8, e.topo.N()*e.topo.N())
		}
		e.scores = s
	}
	if s.maxLoopLen != e.MaxLoopLen || s.overlapCap != e.topo.OverlapCap() {
		s.maxLoopLen = e.MaxLoopLen
		s.overlapCap = e.topo.OverlapCap()
		s.allDirty = true
	}
	s.sync(e)
	return s
}

// sync re-scores every rectangle the table marked dirty (all of them
// after a reset); imprv stays lazy behind impOK.
func (s *scoreTable) sync(e *Env) {
	if s.allDirty {
		for ri := range s.sc {
			s.rescore(e, int32(ri))
		}
		s.allDirty = false
	}
	for _, ri := range s.dirty {
		s.rescore(e, ri)
		s.inDirty[ri] = false
	}
	s.dirty = s.dirty[:0]
}

// noteAdded applies the new loop's exact perturbation to the cache,
// reading the changed dist entries and saturated nodes off the topology
// (see the type comment for why this set is complete).
func (s *scoreTable) noteAdded(t *topo.Topology, l topo.Loop) {
	if s.allDirty {
		return
	}
	if !s.tab.HasPairIndex() {
		// Coarse superset fallback for grids without the pair index:
		// fully re-score everything sharing a node with the loop.
		for _, id := range s.tab.NodesOf(l) {
			for _, ri := range s.tab.RectsAt(int(id)) {
				s.mark(ri)
			}
		}
		return
	}
	// (u,v) and (v,u) lie on the same rectangles, so each unordered pair's
	// rectangles are walked once, taking both directions' CheckCount
	// decrements together.
	n := int32(t.N())
	for _, pk := range t.LastAddNewPairs() {
		s.pairNew[unordered(pk, n)]++
	}
	for _, pk := range t.LastAddChangedPairs() {
		k := unordered(pk, n)
		dec := int32(s.pairNew[k])
		if dec < 0 {
			continue
		}
		s.pairNew[k] = -1
		for _, ri := range s.tab.RectsAtPair(k) {
			s.sc[ri].impOK = false
			s.sc[ri].count -= dec
		}
	}
	for _, pk := range t.LastAddChangedPairs() {
		s.pairNew[unordered(pk, n)] = 0
	}
	for _, id := range t.LastAddSaturatedNodes() {
		for _, ri := range s.tab.RectsAt(int(id)) {
			s.sc[ri].cwOK, s.sc[ri].ccwOK = false, false
		}
	}
	if ri := s.tab.RectIndex(l); ri >= 0 {
		sc := &s.sc[ri]
		if l.Dir == topo.Clockwise {
			sc.cwOK = false
		} else {
			sc.ccwOK = false
		}
		// The memoized winner may be the direction just taken.
		sc.impOK = false
	}
}

// unordered maps the packed pair key u*n+v to min(u,v)*n+max(u,v).
func unordered(pk, n int32) int32 {
	if u, v := pk/n, pk%n; v < u {
		return v*n + u
	}
	return pk
}

func (s *scoreTable) mark(ri int32) {
	if !s.inDirty[ri] {
		s.inDirty[ri] = true
		s.dirty = append(s.dirty, ri)
	}
}

// markAllDirty invalidates the whole table (topology reset or replaced).
// Rows already marked dirty are re-scored twice by the next sync, which is
// harmless.
func (s *scoreTable) markAllDirty() {
	s.allDirty = true
}

// rescore recomputes one rectangle's legality and count from scratch and
// drops its memoized imprv, leaving only the trivial bound.
func (s *scoreTable) rescore(e *Env, ri int32) {
	r := &s.tab.Rects()[ri]
	sc := &s.sc[ri]
	*sc = rectScore{imprv: noBound}
	cw := r.Loop(topo.Clockwise)
	if !e.allowed(cw) {
		return
	}
	cwOK := e.topo.CheckAdd(cw) == nil
	ccwOK := e.topo.CheckAdd(r.Loop(topo.Counterclockwise)) == nil
	if !cwOK && !ccwOK {
		return
	}
	sc.cwOK, sc.ccwOK = cwOK, ccwOK
	ids := r.Nodes
	n := e.topo.N()
	dist := e.topo.DistData()
	for _, u := range ids {
		row := dist[int(u)*n : int(u)*n+n]
		for _, v := range ids {
			if row[v] < 0 { // a node's distance to itself is 0
				sc.count++
			}
		}
	}
}

// ensureImprv fills in the rectangle's memoized Imprv. One fused pass over
// the perimeter pairs computes both directions' sums: the clockwise hop
// distance from perimeter position i to position i+k is the step count k
// along the precomputed clockwise ID list, the counterclockwise one its
// complement L − k; current distances come from the raw incremental cache,
// with the 5N sentinel for unconnected pairs.
//
// Every term is max(0, cur − d) for integers cur ≤ 5N and d < L, and a
// rectangle has at most L(L−1) < 2^13 ordered perimeter pairs on the
// largest supported grid, so each sum stays far below 2^31. The brute-force
// scan adds the same terms in float64: each of its partial sums is an
// integer below 2^53, so every float addition is exact and its result is
// the integer sum whatever the order. Accumulating in integers and
// converting once (GreedyResult.Gain) therefore yields the oracle's bits.
func (s *scoreTable) ensureImprv(e *Env, ri int32) {
	sc := &s.sc[ri]
	ids := s.tab.Rects()[ri].Nodes
	ll := len(ids)
	n := e.topo.N()
	dist := e.topo.DistData()
	sentinel := int(topo.UnconnectedHops(e.topo.Rows(), e.topo.Cols()))
	icw, iccw := 0, 0
	for i, u := range ids {
		row := dist[int(u)*n : int(u)*n+n]
		j := i
		for k := 1; k < ll; k++ {
			if j++; j == ll {
				j = 0
			}
			cur := int(row[ids[j]])
			if cur < 0 {
				cur = sentinel
			}
			icw += max(cur-k, 0)
			iccw += max(cur-(ll-k), 0)
		}
	}
	sc.imprv, sc.dir = int32(icw), topo.Clockwise
	if sc.ccwOK && (!sc.cwOK || iccw > icw) {
		sc.imprv, sc.dir = int32(iccw), topo.Counterclockwise
	}
	sc.impOK = true
}
