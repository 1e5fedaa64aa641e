package rl

import (
	"math"
	"testing"

	"routerless/internal/nn"
	"routerless/internal/topo"
)

// DefaultA2C mirrors the paper's formulation.
func DefaultA2C() A2C { return A2C{ValueCoeff: 0.5} }

// testGamma is the discount factor γ of train, close to one as in the
// paper's formulation.
const testGamma = 0.99

// episode is a test trajectory with the step rewards and the final reward
// it was played for, which the trajectory itself does not carry.
type episode struct {
	Trajectory
	rewards []float64
	final   float64
}

// returnsToGo is the reference returns-to-go of the episode's step
// rewards, seeding with its final reward after the last step: G_t = r_t +
// γ G_{t+1}, G_n = final.
func returnsToGo(ep episode, gamma float64) []float64 {
	returns := make([]float64, len(ep.rewards))
	g := ep.final
	for t := len(ep.rewards) - 1; t >= 0; t-- {
		g = ep.rewards[t] + gamma*g
		returns[t] = g
	}
	return returns
}

// play steps e through a, recording each state, action and reward.
func (ep *episode) play(e *Env, a Action) {
	st := e.StateInto(nil)
	r, _ := e.Step(a)
	ep.Steps = append(ep.Steps, StepRecord{State: st, Action: a})
	ep.rewards = append(ep.rewards, r)
}

// train is one learner's update: the episode's returns-to-go at
// testGamma, then Accumulate over them.
func (a *A2C) train(net *nn.PolicyValueNet, ep episode) float64 {
	return a.Accumulate(net, ep.Trajectory, returnsToGo(ep, testGamma))
}

// testConfig returns a narrow network for fast tests.
func testConfig(n int) nn.Config { return nn.Config{N: n, BaseChannels: 2, Pools: 2} }

// grads returns a copy of net's flattened gradients.
func grads(net *nn.PolicyValueNet) []float64 {
	g := make([]float64, net.NumParams())
	net.CopyGradsInto(g)
	return g
}

// plainSGD is a clipped stochastic-gradient step w -= LR·clip(g) on a
// network's flat weights, the update the drl parameter server applies.
type plainSGD struct{ LR, Clip float64 }

// Step applies net's accumulated gradients and clears them.
func (s plainSGD) Step(net *nn.PolicyValueNet) {
	w, g := net.GetWeights(), grads(net)
	for i, gv := range g {
		if s.Clip > 0 {
			gv = min(max(gv, -s.Clip), s.Clip)
		}
		w[i] -= s.LR * gv
	}
	net.SetWeights(w)
	net.ZeroGrads()
}

// forward1 evaluates one state in inference mode.
func forward1(net *nn.PolicyValueNet, s []float64) *nn.Output {
	outs := make([]nn.Output, 1)
	net.Forward([][]float64{s}, outs, false)
	return &outs[0]
}

func smallTraj(e *Env) episode {
	var ep episode
	actions := []Action{
		{0, 0, 3, 3, topo.Clockwise},
		{0, 0, 3, 3, topo.Clockwise}, // repetitive, reward -1
		{0, 0, 1, 1, topo.Counterclockwise},
	}
	for _, a := range actions {
		ep.play(e, a)
	}
	ep.final = e.FinalReward()
	return ep
}

func TestA2CAccumulatesGradients(t *testing.T) {
	e := NewEnv(4, 6)
	traj := smallTraj(e)
	net := nn.NewPolicyValueNet(testConfig(4), 3)
	net.ZeroGrads()
	a2c := DefaultA2C()
	mse := a2c.train(net, traj)
	if mse <= 0 {
		t.Fatalf("mse = %v, want > 0 for an untrained net", mse)
	}
	nonzero := 0
	for _, g := range grads(net) {
		if g != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no gradients accumulated")
	}
}

func TestA2CEmptyTrajectory(t *testing.T) {
	net := nn.NewPolicyValueNet(testConfig(4), 3)
	a2c := DefaultA2C()
	if got := a2c.train(net, episode{}); got != 0 {
		t.Fatalf("empty trajectory mse = %v", got)
	}
}

// Training on the same trajectory repeatedly must reduce the value error:
// the critic learns the returns.
func TestA2CValueLearning(t *testing.T) {
	e := NewEnv(4, 6)
	traj := smallTraj(e)
	net := nn.NewPolicyValueNet(testConfig(4), 5)
	a2c := DefaultA2C()
	sgd := plainSGD{LR: 5e-3, Clip: 1}
	first := -1.0
	var last float64
	for i := 0; i < 40; i++ {
		net.ZeroGrads()
		last = a2c.train(net, traj)
		if first < 0 {
			first = last
		}
		sgd.Step(net)
	}
	if last >= first {
		t.Fatalf("value MSE did not decrease: %v -> %v", first, last)
	}
}

// The advantage sign must steer the policy: positive advantage increases
// the chosen action's probability.
func TestA2CPolicyDirection(t *testing.T) {
	e := NewEnv(4, 6)
	st := e.StateInto(nil)
	act := Action{1, 1, 2, 2, topo.Clockwise}
	net := nn.NewPolicyValueNet(testConfig(4), 7)
	prob := func() float64 {
		o := forward1(net, st)
		return o.CoordProbs[0][act.X1] * o.CoordProbs[1][act.Y1] *
			o.CoordProbs[2][act.X2] * o.CoordProbs[3][act.Y2] * (1 + o.Dir) / 2
	}
	before := prob()
	// A trajectory with a large positive final reward for this action.
	traj := episode{
		Trajectory: Trajectory{Steps: []StepRecord{{State: st, Action: act}}},
		rewards:    []float64{0},
		final:      50, // >> value estimate -> positive advantage
	}
	a2c := DefaultA2C()
	sgd := plainSGD{LR: 2e-3, Clip: 1}
	for i := 0; i < 30; i++ {
		net.ZeroGrads()
		a2c.train(net, traj)
		sgd.Step(net)
	}
	after := prob()
	if after <= before {
		t.Fatalf("positive advantage decreased action probability: %v -> %v", before, after)
	}
}

func TestA2CDiscounting(t *testing.T) {
	// With gamma = 0 only the immediate reward matters; the value target
	// for the last step is r + 0*final = r.
	e := NewEnv(4, 6)
	traj := smallTraj(e)
	net := nn.NewPolicyValueNet(testConfig(4), 9)
	a := DefaultA2C()
	returns := returnsToGo(traj, 0)
	sgd := plainSGD{LR: 5e-3, Clip: 1}
	for i := 0; i < 80; i++ {
		net.ZeroGrads()
		a.Accumulate(net, traj.Trajectory, returns)
		sgd.Step(net)
	}
	// After training, V(s_last) should approach r_last + 0 = -1? The last
	// step was valid (reward 0)... verify against computed target.
	want := traj.rewards[len(traj.rewards)-1]
	got := forward1(net, traj.Steps[len(traj.Steps)-1].State).Value
	if math.Abs(got-want) > 1.0 {
		t.Fatalf("gamma=0 value = %v, want near %v", got, want)
	}
}
