package rl

import (
	"routerless/internal/nn"
	"routerless/internal/topo"
)

// StepRecord is one trajectory element: the state observed and the action
// taken. The rewards enter the update only through the returns-to-go the
// caller passes to Accumulate.
type StepRecord struct {
	State  []float64
	Action Action
}

// Trajectory is an episode's step sequence.
type Trajectory struct {
	Steps []StepRecord
}

// defaultTrainTile is the batched update's tile size when A2C.tile is zero.
const defaultTrainTile = 16

// A2C computes advantage actor-critic gradients (Eqs. 15–18) for a
// trajectory and accumulates them into net's parameter gradients. The
// struct carries reusable scratch buffers, so one A2C value per worker
// makes repeated Accumulate calls allocation-free; it is not safe for
// concurrent use.
type A2C struct {
	// ValueCoeff scales the value-head loss (the paper's constant c in
	// Eq. 20).
	ValueCoeff float64

	// tile is the trajectory-update tile size: steps are processed in
	// t-ordered tiles of up to tile samples, each tile one training Forward
	// + Backward pass. Zero selects defaultTrainTile. Every tile size
	// accumulates bit-identical gradients, running statistics, and MSE.
	tile int

	// Scratch reused across Accumulate calls: the tile's state views,
	// outputs, and head-gradient rows.
	states [][]float64
	outs   []nn.Output
	flat   []float64
	dDir   []float64
	dVal   []float64
}

// Accumulate back-propagates the trajectory through net, with returns the
// trajectory's discounted returns-to-go G_t = r_t + γ G_{t+1}, with G_n the
// episode's final reward, one per step (the episode driver of internal/search computes them once
// for the tree backup and this update). Gradients are summed into net's parameter
// gradient buffers; callers then ship them to the parameter server (§4.6),
// which applies the SGD update.
// It returns the mean squared value error, a training-progress signal.
//
// The update runs in tile-sized batched passes: each tile of consecutive
// steps runs one training Forward (per-layer activations cached for every
// sample) and one Backward, with the head gradients for the whole tile
// computed in one sweep between the two network calls. The batched passes
// reduce in ascending sample (= trajectory) order, so gradients, BatchNorm
// running statistics, and MSE are byte-identical to a per-step loop of
// one-sample calls (the test oracle).
func (a *A2C) Accumulate(net *nn.PolicyValueNet, traj Trajectory, returns []float64) float64 {
	n := len(traj.Steps)
	if n == 0 {
		return 0
	}
	nc := net.Cfg.N
	tile := a.tile
	if tile <= 0 {
		tile = defaultTrainTile
	}
	if tile > n {
		tile = n
	}
	if cap(a.states) < tile {
		a.states = make([][]float64, tile)
	}
	if cap(a.outs) < tile {
		a.outs = make([]nn.Output, tile)
	}
	if cap(a.flat) < tile*4*nc {
		a.flat = make([]float64, tile*4*nc)
	}
	if cap(a.dDir) < tile {
		a.dDir = make([]float64, tile)
	}
	if cap(a.dVal) < tile {
		a.dVal = make([]float64, tile)
	}

	mse := 0.0
	for t0 := 0; t0 < n; t0 += tile {
		nb := tile
		if t0+nb > n {
			nb = n - t0
		}
		states := a.states[:nb]
		outs := a.outs[:nb]
		for bi := 0; bi < nb; bi++ {
			states[bi] = traj.Steps[t0+bi].State
		}
		net.Forward(states, outs, true)

		flat := a.flat[:nb*4*nc]
		dDir := a.dDir[:nb]
		dVal := a.dVal[:nb]
		for bi := 0; bi < nb; bi++ {
			s := &traj.Steps[t0+bi]
			out := &outs[bi]
			adv := returns[t0+bi] - out.Value // A_t (Eq. 16)

			// Policy gradient for the coordinate heads: for loss
			// -A log π(a), d/dlogit_i = A (p_i - 1{i==a_g}).
			chosen := [4]int{s.Action.X1, s.Action.Y1, s.Action.X2, s.Action.Y2}
			row := flat[bi*4*nc : (bi+1)*4*nc]
			for gi := 0; gi < 4; gi++ {
				dl := row[gi*nc : (gi+1)*nc]
				for i, p := range out.CoordProbs[gi] {
					dl[i] = adv * p
				}
				dl[chosen[gi]] -= adv
			}
			// Direction head: the tanh output maps to P(clockwise) =
			// (1+Dir)/2. For loss -A log P(chosen):
			//   clockwise:        d/dz = -A (1 - Dir)
			//   counterclockwise: d/dz = +A (1 + Dir)
			if s.Action.Dir == topo.Clockwise {
				dDir[bi] = -adv * (1 - out.Dir)
			} else {
				dDir[bi] = adv * (1 + out.Dir)
			}
			// Value head: loss c·(G - V)², d/dV = 2c(V - G) (Eq. 18).
			dVal[bi] = 2 * a.ValueCoeff * (out.Value - returns[t0+bi])
			mse += (out.Value - returns[t0+bi]) * (out.Value - returns[t0+bi])
		}
		net.Backward(flat, dDir, dVal)
	}
	return mse / float64(n)
}
