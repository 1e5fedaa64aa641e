package rl

import (
	"math/rand"
	"strconv"
	"testing"

	"routerless/internal/nn"
)

// randomTraj plays up to maxSteps uniformly random legal actions and
// packages the episode as a trajectory, the same shape the DRL worker
// feeds Accumulate.
func randomTraj(e *Env, rng *rand.Rand, maxSteps int) episode {
	var ep episode
	e.Reset()
	for len(ep.Steps) < maxSteps {
		acts := e.Actions()
		if len(acts) == 0 {
			break
		}
		ep.play(e, ActionOf(acts[rng.Intn(len(acts))]))
	}
	ep.final = e.FinalReward()
	return ep
}

// The parity gate at the trainer level: the batched trajectory update must
// produce gradients, BatchNorm running statistics, and value MSE
// bit-identical to the sequential oracle (oracle_test.go) — across tile
// sizes that exercise one-sample, single-tile, multi-tile, and
// partial-final-tile shapes, and across repeated trajectories accumulating
// into live gradient buffers.
func TestA2CBatchedMatchesSequentialByteIdentical(t *testing.T) {
	for _, tile := range []int{1, 2, 5, 16, 64} {
		t.Run("tile"+strconv.Itoa(tile), func(t *testing.T) {
			e := NewEnv(5, 8)
			rng := rand.New(rand.NewSource(int64(97 + tile)))
			seqNet := nn.NewPolicyValueNet(testConfig(5), 11)
			batNet := nn.NewPolicyValueNet(testConfig(5), 11)
			seq := DefaultA2C()
			bat := DefaultA2C()
			bat.tile = tile
			for round := 0; round < 3; round++ {
				traj := randomTraj(e, rng, 37)
				if len(traj.Steps) < 2 {
					t.Fatalf("round %d: degenerate trajectory (%d steps)", round, len(traj.Steps))
				}
				mseSeq := seq.accumulateSequential(seqNet, traj, returnsToGo(traj, testGamma))
				mseBat := bat.train(batNet, traj)
				if mseSeq != mseBat {
					t.Fatalf("round %d: mse diverged: sequential %v, batched %v", round, mseSeq, mseBat)
				}
				gs, gb := grads(seqNet), grads(batNet)
				for i := range gs {
					if gs[i] != gb[i] {
						t.Fatalf("round %d: grad %d diverged: sequential %v, batched %v", round, i, gs[i], gb[i])
					}
				}
				ss := make([]float64, seqNet.NumStats())
				sb := make([]float64, batNet.NumStats())
				seqNet.CopyStatsInto(ss)
				batNet.CopyStatsInto(sb)
				for i := range ss {
					if ss[i] != sb[i] {
						t.Fatalf("round %d: running stat %d diverged: %v vs %v", round, i, ss[i], sb[i])
					}
				}
				// Step both nets so later rounds run on evolved weights.
				plainSGD{LR: 1e-3, Clip: 1}.Step(seqNet)
				plainSGD{LR: 1e-3, Clip: 1}.Step(batNet)
			}
		})
	}
}

// Full training-loop drift check: many episodes of accumulate + SGD on the
// batched path versus the sequential path, same seed, must keep the weight
// vectors bit-equal the whole way. A single ULP of divergence anywhere in
// the batched stack compounds here and fails fast.
func TestA2CBatchedNoSearchDrift(t *testing.T) {
	e := NewEnv(4, 6)
	rng := rand.New(rand.NewSource(131))
	seqNet := nn.NewPolicyValueNet(testConfig(4), 13)
	batNet := nn.NewPolicyValueNet(testConfig(4), 13)
	seq := DefaultA2C()
	bat := DefaultA2C() // default tile
	sgdS := plainSGD{LR: 5e-3, Clip: 1}
	sgdB := plainSGD{LR: 5e-3, Clip: 1}
	for ep := 0; ep < 10; ep++ {
		traj := randomTraj(e, rng, 24)
		seqNet.ZeroGrads()
		batNet.ZeroGrads()
		seq.accumulateSequential(seqNet, traj, returnsToGo(traj, testGamma))
		bat.train(batNet, traj)
		sgdS.Step(seqNet)
		sgdB.Step(batNet)
		ws, wb := seqNet.GetWeights(), batNet.GetWeights()
		for i := range ws {
			if ws[i] != wb[i] {
				t.Fatalf("episode %d: weight %d drifted: sequential %v, batched %v", ep, i, ws[i], wb[i])
			}
		}
	}
}

// The batched Accumulate keeps the worker's zero-allocation contract: once
// the A2C scratch and the net's batched-training arena are warm, a full
// trajectory update never touches the heap.
func TestA2CBatchedZeroAllocWarm(t *testing.T) {
	e := NewEnv(4, 6)
	rng := rand.New(rand.NewSource(151))
	net := nn.NewPolicyValueNet(testConfig(4), 17)
	a2c := DefaultA2C()
	traj := randomTraj(e, rng, 20)
	returns := returnsToGo(traj, testGamma)
	a2c.Accumulate(net, traj.Trajectory, returns) // warm scratch and arena
	allocs := testing.AllocsPerRun(10, func() {
		a2c.Accumulate(net, traj.Trajectory, returns)
	})
	if allocs != 0 {
		t.Fatalf("warmed batched Accumulate allocates %.1f times, want 0", allocs)
	}
	// A shorter trajectory (partial tile) must reuse the same scratch.
	short := randomTraj(e, rng, 7)
	returns = returnsToGo(short, testGamma)
	a2c.Accumulate(net, short.Trajectory, returns)
	allocs = testing.AllocsPerRun(10, func() {
		a2c.Accumulate(net, short.Trajectory, returns)
	})
	if allocs != 0 {
		t.Fatalf("warmed batched Accumulate (short trajectory) allocates %.1f times, want 0", allocs)
	}
}
