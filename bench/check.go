package main

import (
	"fmt"
	"math"

	"routerless/internal/chiplet"
	"routerless/internal/noc3d"
	"routerless/internal/sim"
	"routerless/internal/topo"
)

// checkDesign verifies a routerless design from its loops alone, bypassing
// the topology's incremental caches: no node lies on more than cap loops,
// every ordered node pair is connected, and the mean over pairs of the
// shortest loop distance equals the reported average hop count.
func checkDesign(t *topo.Topology, cap int, hops float64) error {
	if !t.FullyConnected() {
		return fmt.Errorf("not fully connected")
	}
	if m := t.MaxOverlap(); m > cap {
		return fmt.Errorf("max overlap %d exceeds cap %d", m, cap)
	}
	nodes := make([]topo.Node, 0, t.N())
	for id := 0; id < t.N(); id++ {
		nodes = append(nodes, topo.NodeFromID(id, t.Cols()))
	}
	for _, n := range nodes {
		on := 0
		for _, l := range t.Loops() {
			if l.Contains(n) {
				on++
			}
		}
		if on > cap {
			return fmt.Errorf("node %v lies on %d loops, cap %d", n, on, cap)
		}
	}
	total, pairs := 0, 0
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			best := -1
			for _, l := range t.Loops() {
				if h := l.Dist(s, d); h >= 0 && (best < 0 || h < best) {
					best = h
				}
			}
			if best < 0 {
				return fmt.Errorf("no loop carries %v to %v", s, d)
			}
			total += best
			pairs++
		}
	}
	if got := float64(total) / float64(pairs); !sameFloat(got, hops) {
		return fmt.Errorf("average hops recomputed as %.12f, reported %.12f", got, hops)
	}
	return nil
}

// checkNoc3d rebuilds the 3-D design link by link on a fresh base mesh,
// which rejects any link that breaks a constraint, and compares the hop
// count the search's final reward implies.
func checkNoc3d(d *noc3d.Design, cons noc3d.Constraints, hops float64) error {
	if d == nil {
		return fmt.Errorf("no design")
	}
	re := noc3d.NewDesign(d.N, d.Layers, cons)
	for _, l := range d.Links() {
		if err := re.AddLink(l[0], l[1]); err != nil {
			return fmt.Errorf("link %v: %w", l, err)
		}
	}
	if got := re.AvgHops(); !sameFloat(got, hops) || !sameFloat(d.AvgHops(), hops) {
		return fmt.Errorf("average hops %.12f rebuilt, %.12f on the design, %.12f reported", got, d.AvgHops(), hops)
	}
	return nil
}

// checkChiplet rebuilds the interposer design link by link, which rejects
// any link that breaks a placement rule, and checks that it connects every
// core and scores the inter-chiplet hop count the search reported.
func checkChiplet(d *chiplet.Design, hops, penalty float64) error {
	if d == nil {
		return fmt.Errorf("no design")
	}
	re := chiplet.NewDesign(d.Sys)
	for _, l := range d.Links() {
		if err := re.AddLink(l[0], l[1]); err != nil {
			return fmt.Errorf("link %v: %w", l, err)
		}
	}
	if !re.Connected() {
		return fmt.Errorf("rebuilt design leaves cores unreachable")
	}
	if got := re.AvgInterChipletHops(penalty); !sameFloat(got, hops) {
		return fmt.Errorf("inter-chiplet hops %.12f rebuilt, %.12f reported", got, hops)
	}
	return nil
}

// checkResult checks a simulation run's packet conservation and latency
// sanity.
func checkResult(r sim.Result, cfg sim.RunConfig) error {
	switch {
	case r.Cycles != cfg.MeasureCycles:
		return fmt.Errorf("measured %d cycles, want %d", r.Cycles, cfg.MeasureCycles)
	case r.PacketsSent == 0:
		return fmt.Errorf("no packets injected")
	case r.PacketsDone > r.PacketsSent:
		return fmt.Errorf("%d packets delivered of %d sent", r.PacketsDone, r.PacketsSent)
	case r.PacketsDone < r.PacketsSent && !r.Saturated:
		return fmt.Errorf("%d of %d packets lost without saturation", r.PacketsSent-r.PacketsDone, r.PacketsSent)
	case r.PacketsDone > 0 && r.AvgLatency < r.AvgHops:
		return fmt.Errorf("average latency %.3f below average hops %.3f", r.AvgLatency, r.AvgHops)
	}
	return nil
}

// sameFloat reports whether two independently computed averages agree to
// rounding.
func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
