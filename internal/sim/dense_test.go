package sim

// The dense reference walks: the pre-sparse cycles that visit every loop
// slot, node and router unconditionally. They are the byte-identity oracle
// for active-set sparse stepping (sparse_test.go) and live only in tests.
//
// denseRing and denseMesh wrap a production network and replace its Step
// with the dense walk and its active-set gauge with a ground-truth count,
// so comparing interval streams also audits the occupancy bookkeeping.
// Everything else — the shared fabric accounting, Run's packet recycle
// hook and its drain counter — is the wrapped network's own, so dense and
// sparse runs differ only in the stepping walk.

// denseRing steps a Ring with the dense walk.
type denseRing struct{ *Ring }

// Step runs the dense walk instead of the sparse cycle.
func (d denseRing) Step() { d.denseStep() }

// fillStats counts loops carrying a flit from the slot arrays.
func (d denseRing) fillStats(s *IntervalStats) {
	d.Ring.fillStats(s)
	s.ActiveLoops = 0
	for _, ls := range d.loops {
		for _, f := range ls.slot {
			if f != nil {
				s.ActiveLoops++
				break
			}
		}
	}
}

// denseMesh steps a Mesh with the dense walk.
type denseMesh struct{ *Mesh }

// Step runs the dense walk instead of the sparse cycle.
func (d denseMesh) Step() { d.denseStep() }

// fillStats counts routers with buffered flits or queued source packets
// from the FIFOs and queues themselves.
func (d denseMesh) fillStats(s *IntervalStats) {
	d.Mesh.fillStats(s)
	s.ActiveRouters = 0
	for id := range d.routers {
		if d.srcQueue[id].len() > 0 {
			s.ActiveRouters++
			continue
		}
	scan:
		for _, vcs := range d.routers[id].inputs {
			for _, vc := range vcs {
				if vc.fifo.len() > 0 {
					s.ActiveRouters++
					break scan
				}
			}
		}
	}
}

// ringNet returns r as a Network, stepped densely when dense is set.
func ringNet(r *Ring, dense bool) Network {
	if dense {
		return denseRing{r}
	}
	return r
}

// meshNet returns m as a Network, stepped densely when dense is set.
func meshNet(m *Mesh, dense bool) Network {
	if dense {
		return denseMesh{m}
	}
	return m
}

// denseStep is the pre-sparse ring cycle: every loop slot and every node
// is walked unconditionally. It reads none of the active-set state, so the
// bookkeeping Inject keeps up is inert here.
func (r *Ring) denseStep() {
	ejected := r.ejected
	for i := range ejected {
		ejected[i] = 0
	}

	// Phase 0: drain extension buffers into ejection ports first (they
	// arrived earliest).
	for n := 0; n < r.topo.N(); n++ {
		ext := &r.extension[n]
		for ext.len() > 0 && ejected[n] < r.cfg.EjectPorts {
			r.finishFlit(ext.pop())
			ejected[n]++
		}
	}

	// Phase 1+2: ejection decision and advance, per loop.
	for li := range r.loops {
		ls := &r.loops[li]
		for i := range ls.next {
			ls.next[i] = nil
		}
		for i, f := range ls.slot {
			if f == nil {
				continue
			}
			node := ls.nodes[i]
			if f.pkt.Dst == node {
				if ejected[node] < r.cfg.EjectPorts {
					ejected[node]++
					r.finishFlit(f)
					continue
				}
				if r.extension[node].len() < r.cfg.ExtensionBuffers {
					r.extension[node].push(f)
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

	// Phase 3: injection.
	for n := 0; n < r.topo.N(); n++ {
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
			r.injectedFlits++
			inj.sent++
			budget--
			if inj.sent == inj.pkt.NumFlits {
				q.pop()
				r.injs.put(inj)
			}
		}
	}

	// Utilization sampling.
	for _, ls := range r.loops {
		r.linkSamples += int64(len(ls.slot))
		for _, f := range ls.slot {
			if f != nil {
				r.linkBusy++
			}
		}
	}
	r.cycle++
}

// denseStep is the pre-sparse mesh cycle: every router runs every phase
// every cycle.
func (m *Mesh) denseStep() {
	keep := m.pipeScratch[:0]
	for _, d := range m.pipe {
		if d.at > m.cycle {
			keep = append(keep, d)
			continue
		}
		m.routers[d.toNode].inputs[d.toPort][d.toVC].fifo.push(d.flit)
		m.bufCount[d.toNode]++
	}
	m.pipeScratch = m.pipe[:0]
	m.pipe = keep

	// Phase 2: ejection — each router sinks up to one flit per cycle from
	// input VCs holding flits destined here.
	for id := range m.routers {
		m.ejectOne(id, &m.routers[id])
	}

	// Phase 3: route computation + VC allocation + switch allocation +
	// traversal, one flit per output port, one per input VC.
	off := m.cycle % len(m.cands)
	for id := range m.routers {
		m.switchAlloc(id, &m.routers[id], off)
	}

	// Phase 4: NI injection into the Local input port.
	for id := range m.routers {
		m.injectOne(id)
	}

	m.linkSamples += int64(2 * m.Nodes()) // rough per-node link pair sample
	m.linkBusy += int64(len(m.pipe))
	m.cycle++
}
