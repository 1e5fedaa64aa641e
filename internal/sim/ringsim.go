package sim

import (
	"fmt"

	"routerless/internal/topo"
)

// RingConfig parameterizes the routerless network model.
type RingConfig struct {
	// EjectPorts is the number of flits a node can sink per cycle across
	// all loops (the ejection link width).
	EjectPorts int
	// ExtensionBuffers is the number of shared extension-buffer slots per
	// node (REC's mechanism guaranteeing ejection, §2.1). A flit arriving
	// at its destination while the ejection ports are busy parks in an
	// extension buffer; when those are full it circulates the loop again.
	ExtensionBuffers int
	// InjectPerCycle is the number of flits a node can source per cycle
	// (the injection link width; the paper's single-cycle injection).
	InjectPerCycle int
}

// DefaultRingConfig matches the paper's REC/DRL setup: single-flit
// injection/ejection links plus a small pool of extension buffers.
func DefaultRingConfig() RingConfig {
	return RingConfig{EjectPorts: 1, ExtensionBuffers: 4, InjectPerCycle: 1}
}

// flit is one in-flight flit on a loop.
type flit struct {
	pkt  *Packet
	tail bool
	hops int
}

// loopState is the conveyor of per-node flit buffers for one loop. slot[i]
// holds the flit currently latched at perimeter position i; every cycle all
// flits advance one position (single-cycle per hop — the defining
// routerless property: no stalls on the ring).
type loopState struct {
	nodes []int // node IDs along traversal order
	slot  []*flit
	next  []*flit
}

// route is one source-routing entry: the loop a src→dst packet takes and
// the source's perimeter position on it, the slot injection writes. loop
// is -1 where no loop connects the pair.
type route struct {
	loop, pos int32
}

// Ring is the cycle-accurate routerless network simulator.
type Ring struct {
	topo  *topo.Topology
	cfg   RingConfig
	loops []loopState

	// routes is the source-routing table indexed src*N+dst, so the
	// injection path is one array read.
	routes []route

	// srcQueue[node] holds packets awaiting injection, each tracked by
	// flits remaining to inject.
	srcQueue []queue[*injecting]
	// extension[node] holds flits parked awaiting an ejection port.
	extension []ringBuf[*flit]

	// flits/injs recycle the per-flit and per-packet-in-queue records; in
	// steady state injection and delivery never allocate.
	flits pool[flit]
	injs  pool[injecting]

	// ejected is Step's per-cycle ejection-port scratch, hoisted here so
	// the forwarding path allocates nothing. Step resets only the entries
	// dirtied last cycle (ejDirty).
	ejected []int
	ejDirty []int32

	// Active-set state for sparse stepping (see Step). occ[i] counts the
	// occupied slots of loop i, maintained at every inject/eject/park
	// site; loopActive is exactly the loops with occ > 0, extActive the
	// nodes with parked extension flits, injActive the nodes with queued
	// source packets. liveSlots caches the summed slot count of all loops
	// (the per-cycle link-slot sample).
	occ        []int32
	loopActive activeSet
	extActive  activeSet
	injActive  activeSet
	liveSlots  int64

	fabric
}

// NewRing builds a simulator for a routerless topology. The topology must
// be fully connected for arbitrary traffic; unreachable packets cause
// Inject to panic, surfacing design bugs early.
//
// Each ordered pair routes on its minimum-hop loop, the lowest index
// winning a tie; pairs no loop connects (src == dst too) get no route.
// One walk per loop, in index order, fills the table in O(Σ Len²): from
// each source, the node k hops on takes the loop when k is the pair's
// minimum (Topology.DistData) and no earlier loop took it.
func NewRing(t *topo.Topology, cfg RingConfig) *Ring {
	if cfg.EjectPorts < 1 || cfg.InjectPerCycle < 1 {
		panic("sim: RingConfig needs at least one inject and eject port")
	}
	n, loops := t.N(), t.Loops()
	total := 0
	for _, l := range loops {
		total += l.Len()
	}
	r := &Ring{
		topo:       t,
		cfg:        cfg,
		loops:      make([]loopState, len(loops)),
		routes:     make([]route, n*n),
		srcQueue:   make([]queue[*injecting], n),
		extension:  make([]ringBuf[*flit], n),
		ejected:    make([]int, n),
		ejDirty:    make([]int32, 0, n),
		occ:        make([]int32, len(loops)),
		loopActive: newActiveSet(len(loops)),
		extActive:  newActiveSet(n),
		injActive:  newActiveSet(n),
		liveSlots:  int64(total),
	}
	parked := make([]*flit, n*cfg.ExtensionBuffers)
	for i := range r.extension {
		r.extension[i].buf = segment(parked, i, cfg.ExtensionBuffers)
	}
	for i := range r.routes {
		r.routes[i] = route{loop: -1, pos: -1}
	}
	nodes := make([]int, total)
	slots := make([]*flit, total)
	next := make([]*flit, total)
	off := 0
	for li, l := range loops {
		ln := l.Len()
		end := off + ln
		ids := nodes[off:end:end]
		r.loops[li] = loopState{nodes: ids, slot: slots[off:end:end], next: next[off:end:end]}
		off = end
		for _, id := range t.Tables().NodesOf(l) {
			ids[l.IndexOf(topo.NodeFromID(int(id), t.Cols()))] = int(id)
		}
		for i, s := range ids {
			routes, hops := segment(r.routes, s, n), segment(t.DistData(), s, n)
			for k, j := 1, i; k < ln; k++ {
				if j++; j == ln {
					j = 0
				}
				if d := ids[j]; int(hops[d]) == k && routes[d].loop < 0 {
					routes[d] = route{loop: int32(li), pos: int32(i)}
				}
			}
		}
	}
	return r
}

// injecting tracks a packet mid-injection at its source NI.
type injecting struct {
	pkt *Packet
	route
	sent int // flits already placed on the ring
}

// Nodes implements Network.
func (r *Ring) Nodes() int { return r.topo.N() }

// Inject implements Network: the packet joins its source queue and is
// placed onto its loop as slots pass by.
func (r *Ring) Inject(p *Packet) {
	rt := r.routes[p.Src*r.topo.N()+p.Dst]
	if rt.loop < 0 {
		panic(fmt.Sprintf("sim: no loop connects %d -> %d", p.Src, p.Dst))
	}
	inj := r.injs.get()
	inj.pkt, inj.route = p, rt
	r.srcQueue[p.Src].push(inj)
	r.injActive.add(p.Src)
	r.admit(p)
}

// Step implements Network. Per-cycle phases:
//  1. ejection — flits latched at their destination leave the ring,
//     bounded by EjectPorts; overflow parks in extension buffers, and
//     when those are full the flit re-circulates;
//  2. advance — every remaining flit moves one hop (never stalls);
//  3. injection — source NIs place queued flits into empty slots.
//
// The cycle is *sparse*: only loops with occupied slots, nodes
// with parked extension flits, and nodes with queued injections are
// visited, so the per-cycle cost is proportional to activity rather than
// topology size. The invariant making this safe is that every skipped
// unit's step is provably a no-op (an empty loop ejects nothing, advances
// nothing, and swaps two all-nil arrays; an empty buffer or queue drains
// nothing), so sparse stepping is byte-identical to the dense walk —
// Results, events, interval stats, and latency histograms all match. The
// dense walk lives in dense_test.go as the oracle the parity tests hold
// sparse stepping to.
func (r *Ring) Step() {
	// Reset the ejection-port counters dirtied last cycle.
	for _, n := range r.ejDirty {
		r.ejected[n] = 0
	}
	r.ejDirty = r.ejDirty[:0]

	// Phase 0: drain extension buffers into ejection ports first (they
	// arrived earliest). Only nodes with parked flits, in ascending node
	// order — the same order the dense walk visits them.
	for _, v := range r.extActive.list {
		n := int(v)
		ext := &r.extension[n]
		for ext.len() > 0 && r.ejected[n] < r.cfg.EjectPorts {
			r.finishFlit(ext.pop())
			r.bumpEject(n)
		}
	}

	// Phase 1+2: ejection decision and advance, only for loops carrying
	// flits, in ascending loop order (ejection ports are shared across
	// loops, so visit order is observable and must match the dense walk).
	// Slots are nilled as they are read, so after the walk the old slot
	// array is all-nil and becomes the next cycle's scratch — the all-nil
	// `next` invariant that lets empty loops skip clearing entirely.
	for _, v := range r.loopActive.list {
		li := int(v)
		ls := &r.loops[li]
		for i, todo := 0, r.occ[li]; todo > 0; i++ {
			f := ls.slot[i]
			if f == nil {
				continue
			}
			todo--
			ls.slot[i] = nil
			node := ls.nodes[i]
			if f.pkt.Dst == node {
				if r.ejected[node] < r.cfg.EjectPorts {
					r.bumpEject(node)
					r.finishFlit(f)
					r.occ[li]--
					continue
				}
				if r.extension[node].len() < r.cfg.ExtensionBuffers {
					r.extension[node].push(f)
					r.extActive.add(node)
					r.occ[li]--
					continue
				}
				// No room: circulate the loop again.
			}
			j := i + 1
			if j == len(ls.slot) {
				j = 0
			}
			f.hops++
			ls.next[j] = f
		}
		ls.slot, ls.next = ls.next, ls.slot
	}

	// Phase 3: injection, only at nodes with queued packets.
	for _, v := range r.injActive.list {
		n := int(v)
		budget := r.cfg.InjectPerCycle
		q := &r.srcQueue[n]
		for budget > 0 && q.len() > 0 {
			inj := q.front()
			slot := r.loops[inj.loop].slot
			if slot[inj.pos] != nil {
				break // ring traffic has priority; wait for a gap
			}
			f := r.flits.get()
			f.pkt, f.tail = inj.pkt, inj.sent == inj.pkt.NumFlits-1
			slot[inj.pos] = f
			r.occ[inj.loop]++
			r.loopActive.add(int(inj.loop))
			r.injectedFlits++
			inj.sent++
			budget--
			if inj.sent == inj.pkt.NumFlits {
				q.pop()
				r.injs.put(inj)
			}
		}
	}

	// Utilization sampling from the occupancy counters: liveSlots is the
	// summed length of all loops, and occ[li] the flits loop li carries
	// after injection — integer sums identical to the dense per-slot walk.
	r.linkSamples += r.liveSlots
	for _, v := range r.loopActive.list {
		r.linkBusy += int64(r.occ[v])
	}

	// Drop loops that drained, nodes whose extension buffers emptied, and
	// nodes whose source queues ran dry.
	r.loopActive.compact(func(li int) bool { return r.occ[li] > 0 })
	r.extActive.compact(func(n int) bool { return r.extension[n].len() > 0 })
	r.injActive.compact(func(n int) bool { return r.srcQueue[n].len() > 0 })

	r.cycle++
}

// bumpEject counts one ejection at node n this cycle, remembering the
// node so the next sparse cycle resets only the counters actually used.
func (r *Ring) bumpEject(n int) {
	if r.ejected[n] == 0 {
		r.ejDirty = append(r.ejDirty, int32(n))
	}
	r.ejected[n]++
}

// finishFlit retires one flit at its destination and recycles it.
func (r *Ring) finishFlit(f *flit) {
	p, hops := f.pkt, f.hops
	r.flits.put(f)
	r.deliver(p, hops)
}

// fillStats implements Network: the flits parked in extension buffers
// (the ring's only buffering beyond the loop slots themselves) and the
// loops carrying at least one flit, the units a sparse cycle steps.
func (r *Ring) fillStats(s *IntervalStats) {
	s.BufferOccupancy = 0
	for i := range r.extension {
		s.BufferOccupancy += r.extension[i].len()
	}
	s.ActiveLoops = r.loopActive.len()
}
