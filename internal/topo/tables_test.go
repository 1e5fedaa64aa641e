package topo

import (
	"slices"
	"testing"
)

// TestRingIsNodesTwice pins the doubled perimeter lists Algorithm 1's
// Imprv walks without a wraparound test: on every rectangle of a 2×2, a
// non-square and the largest grid, Ring is Nodes followed by Nodes again
// and Nodes is its first half.
func TestRingIsNodesTwice(t *testing.T) {
	for _, g := range [][2]int{{2, 2}, {3, 7}, {MaxJSONSide, MaxJSONSide}} {
		for i, r := range Tables(g[0], g[1]).Rects() {
			l := len(r.Nodes)
			if len(r.Ring) != 2*l || !slices.Equal(r.Ring[:l], r.Nodes) || !slices.Equal(r.Ring[l:], r.Nodes) {
				t.Fatalf("%d×%d rect %d: ring %v is not nodes %v twice", g[0], g[1], i, r.Ring, r.Nodes)
			}
			if l > 0 && &r.Ring[0] != &r.Nodes[0] {
				t.Fatalf("%d×%d rect %d: nodes is not the ring's first half", g[0], g[1], i)
			}
		}
	}
}
