package topo

// RoutingTable is the per-source loop-selection table a routerless NoC
// keeps at each node interface: for every destination, the loop (by index
// into Topology.Loops) that minimizes hop count from this source. Entries
// for unreachable destinations and for the source itself are -1.
//
// Real hardware stores a few bits per destination (§6.6); this table is the
// behavioural equivalent consumed by the simulator.
type RoutingTable struct {
	loops [][]int // [srcID][dstID] = loop index or -1
	dist  [][]int // [srcID][dstID] = hop count or -1
}

// BuildRoutingTable computes the minimum-hop loop selection for every
// ordered pair.
func BuildRoutingTable(t *Topology) *RoutingTable {
	n := t.N()
	rt := &RoutingTable{
		loops: make([][]int, n),
		dist:  make([][]int, n),
	}
	for s := 0; s < n; s++ {
		rt.loops[s] = make([]int, n)
		rt.dist[s] = make([]int, n)
		src := NodeFromID(s, t.Cols())
		for d := 0; d < n; d++ {
			if s == d {
				rt.loops[s][d] = -1
				rt.dist[s][d] = 0
				continue
			}
			li, h := t.BestLoop(src, NodeFromID(d, t.Cols()))
			rt.loops[s][d] = li
			rt.dist[s][d] = h
		}
	}
	return rt
}

// LoopID returns the loop index to use from node ID src to node ID dst,
// or -1.
func (rt *RoutingTable) LoopID(src, dst int) int { return rt.loops[src][dst] }

// DistID returns the hop count from node ID src to node ID dst along the
// selected loop, or -1 when unreachable.
func (rt *RoutingTable) DistID(src, dst int) int { return rt.dist[src][dst] }
