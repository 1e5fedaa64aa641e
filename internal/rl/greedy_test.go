package rl

import (
	"testing"

	"routerless/internal/rec"
	"routerless/internal/topo"
)

func TestCheckCountOnBlankDesign(t *testing.T) {
	e := NewEnv(4, 0)
	// A 2x2 loop newly connects 4*3 = 12 ordered pairs.
	l := topo.MustLoop(0, 0, 1, 1, topo.Clockwise)
	if got := CheckCount(e.Topology(), l); got != 12 {
		t.Fatalf("CheckCount = %d, want 12", got)
	}
	// The full perimeter connects 12*11 = 132 pairs.
	big := topo.MustLoop(0, 0, 3, 3, topo.Clockwise)
	if got := CheckCount(e.Topology(), big); got != 132 {
		t.Fatalf("CheckCount(big) = %d, want 132", got)
	}
}

func TestCheckCountIgnoresAlreadyConnected(t *testing.T) {
	e := NewEnv(4, 0)
	e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	big := topo.MustLoop(0, 0, 3, 3, topo.Counterclockwise)
	if got := CheckCount(e.Topology(), big); got != 0 {
		t.Fatalf("CheckCount = %d, want 0 (already connected)", got)
	}
}

func TestGreedyFirstMoveMaximizesConnectivity(t *testing.T) {
	e := NewEnv(4, 6)
	a, ok := Greedy(e)
	if !ok {
		t.Fatal("no greedy action on blank design")
	}
	// The perimeter loop connects the most pairs on a blank design.
	if a.X1 != 0 || a.Y1 != 0 || a.X2 != 3 || a.Y2 != 3 {
		t.Fatalf("greedy first move = %v, want full perimeter", a)
	}
}

func TestImprvPrefersOppositeDirection(t *testing.T) {
	e := NewEnv(4, 0)
	e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	l := topo.MustLoop(0, 0, 3, 3, topo.Clockwise)
	gain, dir := Imprv(e.Topology(), l, true, true)
	// With a clockwise perimeter in place, the counterclockwise copy
	// halves the long way around.
	if dir != topo.Counterclockwise {
		t.Fatalf("dir = %v, want CCW", dir)
	}
	if gain <= 0 {
		t.Fatalf("gain = %v", gain)
	}
}

func TestGreedyRespectsCap(t *testing.T) {
	e := NewEnv(4, 1)
	e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	a, ok := Greedy(e)
	if !ok {
		t.Fatal("interior loops should remain")
	}
	l, _ := a.Loop()
	if e.Topology().CheckAdd(l) != nil {
		t.Fatalf("greedy proposed illegal loop %v", l)
	}
}

func TestGreedyCompleteConnectsDesign(t *testing.T) {
	for _, n := range []int{4, 6} {
		e := NewEnv(n, 2*(n-1))
		added := GreedyComplete(e)
		if added == 0 {
			t.Fatalf("n=%d: nothing added", n)
		}
		if !e.FullyConnected() {
			t.Fatalf("n=%d: greedy completion left design unconnected", n)
		}
		rt := rec.MustGenerate(n)
		recHops, _ := rt.AverageHops()
		if e.AverageHops() > recHops*1.15 {
			t.Fatalf("n=%d: greedy hops %.3f much worse than REC %.3f",
				n, e.AverageHops(), recHops)
		}
	}
}

func TestGreedySearchMetrics(t *testing.T) {
	e := NewEnv(4, 6)
	r := greedySearch(e)
	if !r.OK {
		t.Fatal("no action")
	}
	if r.NewPairs != 132 {
		t.Fatalf("NewPairs = %d, want 132 for the perimeter", r.NewPairs)
	}
	if r.Gain <= 0 {
		t.Fatalf("Gain = %v", r.Gain)
	}
}

func TestGreedyExhaustedReturnsFalse(t *testing.T) {
	e := NewEnv(2, 1)
	e.Step(Action{0, 0, 1, 1, topo.Clockwise})
	if _, ok := Greedy(e); ok {
		t.Fatal("greedy found action on exhausted design")
	}
}
