package rl

import (
	"math"
	"math/rand"
	"testing"

	"routerless/internal/mesh"
	"routerless/internal/topo"
)

// ActionLess is the canonical lexicographic order on actions: coordinates
// first, then direction (clockwise before counterclockwise). It is the
// reference TestActionIDsFollowActionLess holds Action.ID to.
func ActionLess(a, b Action) bool {
	if a.X1 != b.X1 {
		return a.X1 < b.X1
	}
	if a.Y1 != b.Y1 {
		return a.Y1 < b.Y1
	}
	if a.X2 != b.X2 {
		return a.X2 < b.X2
	}
	if a.Y2 != b.Y2 {
		return a.Y2 < b.Y2
	}
	return a.Dir < b.Dir
}

// TestActionIDsFollowActionLess walks every action of 4×4 to 10×10 grids
// and of the 18×18 grid, degenerate rectangles included, in ActionLess
// order: the ids ascend strictly, and ActionOf decodes each one back to
// its action.
func TestActionIDsFollowActionLess(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 8, 9, 10, topo.MaxJSONSide} {
		var prev Action
		count := 0
		for x1 := 0; x1 < n; x1++ {
			for y1 := 0; y1 < n; y1++ {
				for x2 := 0; x2 < n; x2++ {
					for y2 := 0; y2 < n; y2++ {
						for _, dir := range []topo.Direction{topo.Clockwise, topo.Counterclockwise} {
							a := Action{x1, y1, x2, y2, dir}
							if got := ActionOf(a.ID()); got != a {
								t.Fatalf("n=%d: ActionOf(%v.ID()) = %v", n, a, got)
							}
							if count > 0 && (!ActionLess(prev, a) || prev.ID() >= a.ID()) {
								t.Fatalf("n=%d: %v (id %d) then %v (id %d)", n, prev, prev.ID(), a, a.ID())
							}
							prev = a
							count++
						}
					}
				}
			}
		}
		if want := 2 * n * n * n * n; count != want {
			t.Fatalf("n=%d: walked %d actions, want %d", n, count, want)
		}
	}
}

func TestActionLoopConversion(t *testing.T) {
	a := Action{X1: 0, Y1: 0, X2: 2, Y2: 3, Dir: topo.Clockwise}
	l, ok := a.Loop()
	if !ok || l.R2 != 2 || l.C2 != 3 {
		t.Fatalf("loop = %v ok=%v", l, ok)
	}
	// Degenerate rectangle -> invalid.
	if _, ok := (Action{X1: 1, Y1: 0, X2: 1, Y2: 3}).Loop(); ok {
		t.Fatal("degenerate action converted")
	}
}

func TestStepRewards(t *testing.T) {
	e := NewEnv(4, 2)
	// Valid.
	r, kind := e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	if r != 0 || kind != Valid {
		t.Fatalf("valid: r=%v kind=%v", r, kind)
	}
	// Repetitive.
	r, kind = e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	if r != -1 || kind != Repetitive {
		t.Fatalf("repetitive: r=%v kind=%v", r, kind)
	}
	// Invalid (degenerate).
	r, kind = e.Step(Action{0, 0, 0, 3, topo.Clockwise})
	if r != -1 || kind != Invalid {
		t.Fatalf("invalid: r=%v kind=%v", r, kind)
	}
	// Fill the cap at the perimeter, then go illegal.
	if _, kind = e.Step(Action{0, 0, 3, 3, topo.Counterclockwise}); kind != Valid {
		t.Fatal("second direction should be valid")
	}
	r, kind = e.Step(Action{0, 0, 2, 2, topo.Clockwise})
	if kind != Illegal || r != -5*4 {
		t.Fatalf("illegal: r=%v kind=%v, want -20/Illegal", r, kind)
	}
	// Out-of-bounds rectangles are invalid specifications.
	_, kind = e.Step(Action{0, 0, 4, 4, topo.Clockwise})
	if kind != Invalid {
		t.Fatalf("out of bounds kind = %v", kind)
	}
}

func TestStepOnlyValidMutates(t *testing.T) {
	e := NewEnv(4, 2)
	e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	before := e.Topology().NumLoops()
	e.Step(Action{0, 0, 3, 3, topo.Clockwise}) // repetitive
	e.Step(Action{0, 0, 0, 3, topo.Clockwise}) // invalid
	if e.Topology().NumLoops() != before {
		t.Fatal("penalized action mutated the design")
	}
}

func TestFinalRewardMatchesMeshReference(t *testing.T) {
	e := NewEnv(2, 0)
	e.Step(Action{0, 0, 1, 1, topo.Clockwise})
	// 2x2 single CW loop: avg hops 2; mesh avg = AverageHops(2,2) = 4/3.
	want := mesh.AverageHops(2, 2) - 2
	if math.Abs(e.FinalReward()-want) > 1e-12 {
		t.Fatalf("final = %v, want %v", e.FinalReward(), want)
	}
}

func TestAverageHopsChargesSentinel(t *testing.T) {
	e := NewEnv(4, 0)
	// Empty design: all 240 ordered pairs unconnected -> sentinel 20.
	if got := e.AverageHops(); got != 20 {
		t.Fatalf("blank avg hops = %v, want 20", got)
	}
	if e.FinalReward() >= 0 {
		t.Fatal("blank design should have strongly negative final reward")
	}
}

func TestLegalActionsShrinkWithCap(t *testing.T) {
	e := NewEnv(4, 1)
	all := len(e.Actions())
	// 4x4: C(4,2)^2 rectangles = 36, both directions = 72.
	if all != 72 {
		t.Fatalf("blank legal actions = %d, want 72", all)
	}
	e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	after := len(e.Actions())
	if after >= all {
		t.Fatalf("legal actions did not shrink: %d -> %d", all, after)
	}
	if !e.HasLegalAction() {
		t.Fatal("interior rectangles should remain legal")
	}
}

// TestLegalActionsStrictlyAscending pins the precondition mcts.Tree.Expand
// builds its edge slice on: along random legal additions, with and without
// a loop-length limit, Actions lists each action id once, in strictly
// ascending order, which is ActionLess order on the decoded actions.
func TestLegalActionsStrictlyAscending(t *testing.T) {
	for _, tc := range []struct{ n, cap, maxLen int }{
		{4, 6, 0}, {5, 4, 0}, {6, 10, 0}, {8, 14, 0}, {5, 6, 8}, {8, 14, 12},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEnv(tc.n, tc.cap)
			e.MaxLoopLen = tc.maxLen
			for step := 0; ; step++ {
				legal := e.Actions()
				for i := 1; i < len(legal); i++ {
					if a, b := ActionOf(legal[i-1]), ActionOf(legal[i]); legal[i-1] >= legal[i] || !ActionLess(a, b) {
						t.Fatalf("%+v seed %d step %d: %v then %v", tc, seed, step, a, b)
					}
				}
				if len(legal) == 0 {
					break
				}
				if _, kind := e.Step(ActionOf(legal[rng.Intn(len(legal))])); kind != Valid {
					t.Fatalf("%+v seed %d step %d: a listed action was %v", tc, seed, step, kind)
				}
			}
		}
	}
}

func TestHasLegalActionExhaustion(t *testing.T) {
	e := NewEnv(2, 1)
	e.Step(Action{0, 0, 1, 1, topo.Clockwise})
	if e.HasLegalAction() {
		t.Fatal("cap 1 on 2x2 should be exhausted after one loop")
	}
	if len(e.Actions()) != 0 {
		t.Fatal("Actions disagrees with HasLegalAction")
	}
}

func TestStateMatchesTopologyHopMatrix(t *testing.T) {
	e := NewEnv(3, 0)
	e.Step(Action{0, 0, 2, 2, topo.Clockwise})
	s := e.StateInto(nil)
	m := e.Topology().HopMatrixInto(nil)
	if len(s) != len(m) {
		t.Fatal("length mismatch")
	}
	for i := range s {
		if s[i] != m[i] {
			t.Fatal("state differs from hop matrix")
		}
	}
}

func TestActionKindString(t *testing.T) {
	for k, want := range map[ActionKind]string{Valid: "valid", Repetitive: "repetitive", Invalid: "invalid", Illegal: "illegal"} {
		if k.String() != want {
			t.Errorf("%d -> %q", k, k.String())
		}
	}
}

// HasLegalAction reports whether any loop can still be added. It is the
// episode-termination predicate: "loops are added until no more can be
// added without violating constraints".
func (e *Env) HasLegalAction() bool {
	s := e.scoresSynced()
	for ri := range s.sc {
		if s.sc[ri].cwOK || s.sc[ri].ccwOK {
			return true
		}
	}
	return false
}
