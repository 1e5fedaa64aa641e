package rl

import (
	"routerless/internal/nn"
	"routerless/internal/topo"
)

// The reference implementations the incremental and batched production
// paths are held to bit for bit. They live only in tests.

// CheckCount returns the number of ordered node pairs newly connected by
// adding the rectangle of loop l (direction-independent: a loop connects
// the same pairs either way).
func CheckCount(t *topo.Topology, l topo.Loop) int {
	nodes := l.Nodes()
	count := 0
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			if t.Dist(u, v) < 0 {
				count++
			}
		}
	}
	return count
}

// Imprv evaluates the average-hop-count benefit of adding loop l in each
// permitted direction and returns the larger improvement with its
// direction. Improvement sums, over the loop's perimeter pairs, the
// distance reduction relative to the current design (unconnected pairs
// count as the 5N sentinel).
func Imprv(t *topo.Topology, l topo.Loop, cwOK, ccwOK bool) (float64, topo.Direction) {
	nodes := l.Nodes()
	sentinel := topo.UnconnectedHops(t.Rows(), t.Cols())
	evaluate := func(dir topo.Direction) float64 {
		ld := l
		ld.Dir = dir
		sum := 0.0
		for _, u := range nodes {
			for _, v := range nodes {
				if u == v {
					continue
				}
				cur := float64(t.Dist(u, v))
				if cur < 0 {
					cur = sentinel
				}
				nd := float64(ld.Dist(u, v))
				if nd < cur {
					sum += cur - nd
				}
			}
		}
		return sum
	}
	switch {
	case cwOK && ccwOK:
		icw := evaluate(topo.Clockwise)
		iccw := evaluate(topo.Counterclockwise)
		if iccw > icw {
			return iccw, topo.Counterclockwise
		}
		return icw, topo.Clockwise
	case cwOK:
		return evaluate(topo.Clockwise), topo.Clockwise
	default:
		return evaluate(topo.Counterclockwise), topo.Counterclockwise
	}
}

// bruteGreedySearch is the original full O(N⁴) rescan of Algorithm 1, the
// parity oracle for the incremental greedySearch: the property tests
// assert both return identical results on arbitrary partial designs.
func bruteGreedySearch(e *Env) greedyResult {
	bestLoop := Action{}
	bestCount := -1
	bestImprv := 0.0
	found := false
	for x1 := 0; x1 < e.N-1; x1++ {
		for y1 := 0; y1 < e.N-1; y1++ {
			for x2 := x1 + 1; x2 < e.N; x2++ {
				for y2 := y1 + 1; y2 < e.N; y2++ {
					cw := topo.MustLoop(x1, y1, x2, y2, topo.Clockwise)
					ccw := topo.MustLoop(x1, y1, x2, y2, topo.Counterclockwise)
					if !e.allowed(cw) {
						continue
					}
					cwOK := e.topo.CheckAdd(cw) == nil
					ccwOK := e.topo.CheckAdd(ccw) == nil
					if !cwOK && !ccwOK {
						continue
					}
					count := CheckCount(e.topo, cw)
					if count < bestCount {
						continue
					}
					imprv, dir := Imprv(e.topo, cw, cwOK, ccwOK)
					if count > bestCount || imprv > bestImprv {
						bestCount = count
						bestImprv = imprv
						bestLoop = Action{x1, y1, x2, y2, dir}
						found = true
					}
				}
			}
		}
	}
	return greedyResult{Action: bestLoop, NewPairs: bestCount, Gain: bestImprv, OK: found}
}

// accumulateSequential is the per-step A2C update over the trajectory's
// returns-to-go: one training Forward and one Backward per trajectory
// step, each a one-sample call, in trajectory order, with its own per-step
// head-gradient math. It is the parity oracle
// for the tiled Accumulate, which must match its gradients, BatchNorm
// running statistics, and MSE bit for bit; the layers' equivalence to the
// lowered and naive convolutions and to central differences is pinned in
// internal/nn and internal/tensor.
func (a *A2C) accumulateSequential(net *nn.PolicyValueNet, traj episode, returns []float64) float64 {
	if len(traj.Steps) == 0 {
		return 0
	}
	outs := make([]nn.Output, 1)
	mse := 0.0
	for t, s := range traj.Steps {
		net.Forward([][]float64{s.State}, outs, true)
		out := &outs[0]
		adv := returns[t] - out.Value // A_t (Eq. 16)

		chosen := [4]int{s.Action.X1, s.Action.Y1, s.Action.X2, s.Action.Y2}
		var dLogits []float64
		for gi := 0; gi < 4; gi++ {
			dl := make([]float64, len(out.CoordProbs[gi]))
			for i, p := range out.CoordProbs[gi] {
				dl[i] = adv * p
			}
			dl[chosen[gi]] -= adv
			dLogits = append(dLogits, dl...)
		}
		var dDir float64
		if s.Action.Dir == topo.Clockwise {
			dDir = -adv * (1 - out.Dir)
		} else {
			dDir = adv * (1 + out.Dir)
		}
		dValue := 2 * a.ValueCoeff * (out.Value - returns[t])
		mse += (out.Value - returns[t]) * (out.Value - returns[t])

		net.Backward(dLogits, []float64{dDir}, []float64{dValue})
	}
	return mse / float64(len(traj.Steps))
}
