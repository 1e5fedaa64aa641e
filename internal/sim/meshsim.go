package sim

import (
	"routerless/internal/mesh"
	"routerless/internal/topo"
)

// MeshConfig parameterizes the router-based mesh model, matching the
// paper's setup (§5): 2 VCs per link, 4-flit input buffers, and a router
// pipeline depth of 2 (Mesh-2), 1 (Mesh-1) or 0 (Mesh-0, the "ideal"
// router with only link/contention delays).
type MeshConfig struct {
	VCs         int
	BufferFlits int
	RouterDelay int // pipeline cycles per router
}

// MeshN returns the paper's Mesh-N configuration (N = router delay).
func MeshN(delay int) MeshConfig {
	return MeshConfig{VCs: 2, BufferFlits: 4, RouterDelay: delay}
}

// meshFlit is a flit inside the mesh network.
type meshFlit struct {
	pkt  *Packet
	head bool
	tail bool
	hops int
	dst  topo.Node
}

// vcState is one virtual channel at one input port. The FIFO is a fixed
// ring buffer: credit flow control bounds its occupancy at BufferFlits, so
// it never allocates after construction.
type vcState struct {
	fifo ringBuf[*meshFlit]
	// allocated output for the packet currently using this VC
	// (wormhole: decided at the head flit, held until the tail leaves).
	active  bool
	outPort mesh.Port
	outVC   int
}

// router is one mesh router.
type router struct {
	node topo.Node
	// inputs[port][vc] = the input VCs of each port.
	inputs [mesh.NumPorts][]vcState
	// credits[port][vc] = free buffer slots at the downstream input.
	credits [mesh.NumPorts][]int
	// downVCBusy[port][vc] = downstream VC currently owned by a packet.
	downVCBusy [mesh.NumPorts][]bool
}

// delivery is a flit in transit through the router pipeline + link.
type delivery struct {
	at     int // arrival cycle
	flit   *meshFlit
	toNode int // destination router node ID
	toPort mesh.Port
	toVC   int
}

// cand is one (input port, VC) switch-arbitration candidate.
type cand struct {
	p  mesh.Port
	vc int
}

// Mesh is the cycle-accurate router-based mesh simulator.
type Mesh struct {
	rows, cols int
	cfg        MeshConfig
	routers    []router
	// pipe holds flits traversing pipeline+link, ordered FIFO per edge by
	// construction (arrival times are monotone per VC). pipeScratch is the
	// retained filter buffer Step swaps with pipe each cycle.
	pipe        []delivery
	pipeScratch []delivery

	// cands enumerates every (port, VC) pair once; the shape is identical
	// for all routers, so switch arbitration shares this read-only slice.
	cands []cand

	// flits recycles meshFlit records; steady-state injection and
	// delivery never allocate.
	flits pool[meshFlit]

	srcQueue []queue[*Packet]
	srcSent  []int // flits of head packet already injected
	srcVC    []int // local VC chosen for the head packet mid-injection

	// Active-set state for sparse stepping: bufCount[id] counts the flits
	// across all of router id's input VCs (maintained at every fifo
	// push/pop site), and active is exactly the routers with buffered
	// flits or queued source packets — the only routers whose
	// ejection/switch/injection phases are not provably no-ops. Neighbors
	// activate when a pipe delivery lands a flit in their input VC.
	bufCount []int32
	active   activeSet

	fabric
}

// NewMesh builds a rows×cols mesh of VC wormhole routers.
func NewMesh(rows, cols int, cfg MeshConfig) *Mesh {
	if cfg.VCs < 1 || cfg.BufferFlits < 1 || cfg.RouterDelay < 0 {
		panic("sim: invalid MeshConfig")
	}
	n, vcs := rows*cols, cfg.VCs
	m := &Mesh{
		rows: rows, cols: cols, cfg: cfg,
		routers:  make([]router, n),
		cands:    make([]cand, int(mesh.NumPorts)*vcs),
		srcQueue: make([]queue[*Packet], n),
		srcSent:  make([]int, n),
		srcVC:    make([]int, n),
		bufCount: make([]int32, n),
		active:   newActiveSet(n),
	}
	// One entry per (router, port, VC), in that order.
	states := make([]vcState, n*int(mesh.NumPorts)*vcs)
	fifos := make([]*meshFlit, len(states)*cfg.BufferFlits)
	credits := make([]int, len(states))
	busy := make([]bool, len(states))
	for i := range states {
		states[i].fifo.buf = segment(fifos, i, cfg.BufferFlits)
		credits[i] = cfg.BufferFlits
	}
	for id := range m.routers {
		rt := &m.routers[id]
		rt.node = topo.NodeFromID(id, cols)
		for p := range rt.inputs {
			k := id*int(mesh.NumPorts) + p
			rt.inputs[p] = segment(states, k, vcs)
			rt.credits[p] = segment(credits, k, vcs)
			rt.downVCBusy[p] = segment(busy, k, vcs)
		}
	}
	for i := range m.cands {
		m.cands[i] = cand{mesh.Port(i / vcs), i % vcs}
	}
	return m
}

// Nodes implements Network.
func (m *Mesh) Nodes() int { return m.rows * m.cols }

// Inject implements Network.
func (m *Mesh) Inject(p *Packet) {
	m.srcQueue[p.Src].push(p)
	m.active.add(p.Src)
	m.admit(p)
}

// Step implements Network. Phases: deliver pipelined flits into downstream
// buffers; switch allocation + traversal at every router; NI injection and
// ejection.
//
// The router phases are *sparse*: only routers with a
// non-empty input VC or a queued source packet are visited (ejection,
// switch allocation, and injection at an empty router are all provably
// no-ops), in ascending router order — switch traversal returns credits
// upstream and appends to the shared pipe, so visit order is observable
// and must match the dense walk. The pipe-landing phase is already
// proportional to in-flight flits. Switch arbitration's rotating offset
// is derived from the cycle counter: the old per-router rrIn counter was
// incremented unconditionally once per cycle and therefore always equaled
// the cycle number, so the derivation is bit-identical while letting
// quiescent routers skip the increment. The dense walk lives in
// dense_test.go as the sparse path's oracle.
func (m *Mesh) Step() {
	// Phase 1: land flits whose pipeline+link delay elapsed, activating
	// the receiving router. Survivors are compacted into the retained
	// scratch buffer, then the buffers swap — no per-cycle allocation.
	keep := m.pipeScratch[:0]
	for _, d := range m.pipe {
		if d.at > m.cycle {
			keep = append(keep, d)
			continue
		}
		m.routers[d.toNode].inputs[d.toPort][d.toVC].fifo.push(d.flit)
		m.bufCount[d.toNode]++
		m.active.add(d.toNode)
	}
	m.pipeScratch = m.pipe[:0]
	m.pipe = keep

	// Phases 2-4 visit only active routers. No additions can occur
	// mid-sweep: landing happened above, traversal schedules arrivals at
	// least one cycle out, and injection only touches the router's own
	// buffers — so the list is stable and removals wait for compaction.
	list := m.active.list
	off := m.cycle % len(m.cands)
	for _, v := range list {
		m.ejectOne(int(v), &m.routers[v])
	}
	for _, v := range list {
		m.switchAlloc(int(v), &m.routers[v], off)
	}
	for _, v := range list {
		m.injectOne(int(v))
	}

	// Drop routers that went fully quiescent.
	m.active.compact(func(id int) bool { return m.bufCount[id] > 0 || m.srcQueue[id].len() > 0 })

	// Link utilization: in-transit flits over a rough two links per node,
	// a coarse activity factor for the power model.
	m.linkSamples += int64(2 * m.Nodes())
	m.linkBusy += int64(len(m.pipe))
	m.cycle++
}

// ejectOne sinks one destination flit at router id, preferring the VC
// whose head has waited longest (round-robin over ports for fairness).
func (m *Mesh) ejectOne(id int, rt *router) {
	for p := mesh.Port(0); p < mesh.NumPorts; p++ {
		vcs := rt.inputs[p]
		for v := range vcs {
			vc := &vcs[v]
			if vc.fifo.len() == 0 {
				continue
			}
			f := vc.fifo.front()
			if f.dst.ID(m.cols) != id {
				continue
			}
			// Wormhole ordering: the whole packet drains through this VC
			// one flit per cycle.
			vc.fifo.pop()
			m.bufCount[id]--
			if p != mesh.Local {
				m.creditReturnVC(id, p, v)
			}
			pkt, hops := f.pkt, f.hops
			m.flits.put(f)
			m.deliver(pkt, hops)
			return
		}
	}
}

// switchAlloc performs routing, VC allocation and switch traversal for
// router id: at most one flit leaves per output port per cycle. off is
// the cycle-derived rotating arbitration offset shared by all routers.
func (m *Mesh) switchAlloc(id int, rt *router, off int) {
	usedOut := [mesh.NumPorts]bool{}
	// Iterate all (port, vc) pairs starting from the rotating offset for
	// fairness; the candidate list is shared and read-only.
	cands := m.cands
	for k := 0; k < len(cands); k++ {
		c := cands[(k+off)%len(cands)]
		vc := &rt.inputs[c.p][c.vc]
		if vc.fifo.len() == 0 {
			continue
		}
		f := vc.fifo.front()
		if f.dst.ID(m.cols) == id {
			continue // ejection handled separately
		}
		outPort := mesh.OutputPort(rt.node, f.dst)
		if usedOut[outPort] {
			continue
		}
		// VC allocation for head flits.
		if f.head && !vc.active {
			ov := m.allocVC(rt, outPort)
			if ov < 0 {
				continue // no downstream VC free
			}
			vc.active = true
			vc.outPort = outPort
			vc.outVC = ov
		}
		if !vc.active {
			continue // body flit before its head allocated (shouldn't happen)
		}
		if vc.outPort != outPort {
			outPort = vc.outPort // wormhole: follow the head's route
			if usedOut[outPort] {
				continue
			}
		}
		if rt.credits[outPort][vc.outVC] == 0 {
			continue // downstream buffer full
		}
		// Traverse: consume credit, schedule arrival after pipeline+link.
		rt.credits[outPort][vc.outVC]--
		vc.fifo.pop()
		m.bufCount[id]--
		if c.p != mesh.Local {
			m.creditReturnVC(id, c.p, c.vc)
		}
		next, ok := mesh.Neighbor(rt.node, outPort, m.rows, m.cols)
		if !ok {
			panic("sim: mesh route exits grid")
		}
		f.hops++
		m.pipe = append(m.pipe, delivery{
			at:     m.cycle + m.cfg.RouterDelay + 1,
			flit:   f,
			toNode: next.ID(m.cols),
			toPort: mesh.Opposite(outPort),
			toVC:   vc.outVC,
		})
		usedOut[outPort] = true
		if f.tail {
			// Release the downstream VC for reallocation once the tail
			// has left this router.
			rt.downVCBusy[outPort][vc.outVC] = false
			vc.active = false
		}
	}
}

// allocVC finds a free downstream VC on outPort.
func (m *Mesh) allocVC(rt *router, outPort mesh.Port) int {
	for v := 0; v < m.cfg.VCs; v++ {
		if !rt.downVCBusy[outPort][v] {
			rt.downVCBusy[outPort][v] = true
			return v
		}
	}
	return -1
}

// creditReturnVC returns a credit for a specific (input port, VC) of
// router id to its upstream neighbour.
func (m *Mesh) creditReturnVC(id int, p mesh.Port, vcIdx int) {
	up, ok := mesh.Neighbor(m.routers[id].node, p, m.rows, m.cols)
	if !ok {
		return
	}
	upRt := &m.routers[up.ID(m.cols)]
	op := mesh.Opposite(p)
	if upRt.credits[op][vcIdx] < m.cfg.BufferFlits {
		upRt.credits[op][vcIdx]++
	}
}

// injectOne moves flits of the head packet at node id's NI into the Local
// input port, one flit per cycle, respecting local buffer capacity.
func (m *Mesh) injectOne(id int) {
	q := &m.srcQueue[id]
	if q.len() == 0 {
		return
	}
	local := m.routers[id].inputs[mesh.Local]
	p := q.front()
	// Pick a local VC: head flits need a VC whose fifo can take the whole
	// packet progressively; use the emptiest.
	best, bestFree := -1, 0
	if m.srcSent[id] > 0 {
		// Keep packets on a single local VC: body flits must follow the
		// head, so while mid-injection stick to the chosen VC.
		v := m.srcVC[id]
		best = v
		bestFree = m.cfg.BufferFlits - local[v].fifo.len()
	} else {
		for v := range local {
			free := m.cfg.BufferFlits - local[v].fifo.len()
			if free > bestFree {
				best, bestFree = v, free
			}
		}
	}
	if best < 0 || bestFree == 0 {
		return
	}
	f := m.flits.get()
	f.pkt = p
	f.head = m.srcSent[id] == 0
	f.tail = m.srcSent[id] == p.NumFlits-1
	f.dst = topo.NodeFromID(p.Dst, m.cols)
	if f.head {
		m.srcVC[id] = best
	}
	local[best].fifo.push(f)
	m.bufCount[id]++
	m.injectedFlits++
	m.srcSent[id]++
	if m.srcSent[id] == p.NumFlits {
		q.pop()
		m.srcSent[id] = 0
	}
}

// fillStats implements Network: the flits held in input-VC FIFOs across
// all routers (flits in the pipeline registers excluded) and the routers
// with buffered flits or queued source packets, the units a sparse cycle
// steps.
func (m *Mesh) fillStats(s *IntervalStats) {
	s.BufferOccupancy = 0
	for _, n := range m.bufCount {
		s.BufferOccupancy += int(n)
	}
	s.ActiveRouters = m.active.len()
}
