package rl

import (
	"testing"

	"routerless/internal/topo"
)

func TestMaxLoopLenRejectsLongLoops(t *testing.T) {
	e := NewEnv(4, 6)
	e.MaxLoopLen = 8
	// The full perimeter has length 12 > 8: illegal.
	r, kind := e.Step(Action{0, 0, 3, 3, topo.Clockwise})
	if kind != Illegal || r != e.IllegalPenalty {
		t.Fatalf("long loop: r=%v kind=%v", r, kind)
	}
	// A 2x3 rectangle has perimeter 6 <= 8: fine.
	if _, kind := e.Step(Action{0, 0, 1, 2, topo.Clockwise}); kind != Valid {
		t.Fatalf("short loop rejected: %v", kind)
	}
}

func TestMaxLoopLenFiltersLegalActions(t *testing.T) {
	e := NewEnv(4, 0)
	all := len(e.Actions())
	e.MaxLoopLen = 8
	filtered := len(e.Actions())
	if filtered >= all {
		t.Fatalf("constraint did not shrink action space: %d -> %d", all, filtered)
	}
	for _, id := range e.Actions() {
		a := ActionOf(id)
		l, _ := a.Loop()
		if l.Len() > 8 {
			t.Fatalf("legal action %v has length %d", a, l.Len())
		}
	}
	if !e.HasLegalAction() {
		t.Fatal("short loops should remain")
	}
}

func TestMaxLoopLenGreedyRespects(t *testing.T) {
	e := NewEnv(6, 10)
	e.MaxLoopLen = 12
	added := GreedyComplete(e)
	if added == 0 {
		t.Fatal("greedy added nothing under length constraint")
	}
	for _, l := range e.Topology().Loops() {
		if l.Len() > 12 {
			t.Fatalf("greedy placed loop of length %d", l.Len())
		}
	}
	// With loops capped at 12 on a 6x6, full connectivity needs corner-to-
	// corner pairs to share a loop of perimeter >= 2*(5+5) = 20 — it is
	// impossible; the design must remain partially connected.
	if e.FullyConnected() {
		t.Fatal("6x6 cannot be fully connected with loops of length <= 12")
	}
}

func TestLegalChecksConstraints(t *testing.T) {
	e := NewEnv(4, 6)
	e.MaxLoopLen = 8
	if e.Legal(Action{0, 0, 3, 3, topo.Clockwise}.ID()) {
		t.Fatal("Legal accepted an over-length loop")
	}
	if !e.Legal(Action{0, 0, 1, 1, topo.Clockwise}.ID()) {
		t.Fatal("Legal rejected a valid loop")
	}
	if e.Legal(Action{0, 0, 0, 3, topo.Clockwise}.ID()) {
		t.Fatal("Legal accepted a degenerate rectangle")
	}
}
