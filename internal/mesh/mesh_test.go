package mesh

import (
	"math"
	"testing"
	"testing/quick"

	"routerless/internal/topo"
)

func TestHops(t *testing.T) {
	cases := []struct {
		a, b topo.Node
		want int
	}{
		{topo.Node{Row: 0, Col: 0}, topo.Node{Row: 0, Col: 0}, 0},
		{topo.Node{Row: 0, Col: 0}, topo.Node{Row: 3, Col: 4}, 7},
		{topo.Node{Row: 2, Col: 5}, topo.Node{Row: 1, Col: 1}, 5},
	}
	for _, c := range cases {
		if got := Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAverageHopsMatchesClosedForm(t *testing.T) {
	for _, d := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {3, 5}, {10, 10}} {
		got := AverageHops(d[0], d[1])
		want := AverageHopsClosed(d[0], d[1])
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%dx%d: brute %v vs closed %v", d[0], d[1], got, want)
		}
	}
}

func TestAverageHops8x8NearPaper(t *testing.T) {
	// The paper quotes 5.33 (≈16/3) as the 8x8 mesh average hop count.
	got := AverageHops(8, 8)
	if math.Abs(got-5.333) > 0.1 {
		t.Fatalf("8x8 mesh average hops = %v, want ≈5.33", got)
	}
}

func TestXYNextHopColumnFirst(t *testing.T) {
	cur := topo.Node{Row: 2, Col: 1}
	dst := topo.Node{Row: 0, Col: 3}
	if next := XYNextHop(cur, dst); next != (topo.Node{Row: 2, Col: 2}) {
		t.Fatalf("next = %v, want column move first", next)
	}
	cur = topo.Node{Row: 2, Col: 3}
	if next := XYNextHop(cur, dst); next != (topo.Node{Row: 1, Col: 3}) {
		t.Fatalf("next = %v, want row move after columns align", next)
	}
}

// Property: repeatedly applying XYNextHop reaches dst in exactly Hops steps.
func TestXYRouteLengthQuick(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		src := topo.Node{Row: int(a % 8), Col: int(b % 8)}
		dst := topo.Node{Row: int(c % 8), Col: int(d % 8)}
		cur := src
		steps := 0
		for cur != dst {
			cur = XYNextHop(cur, dst)
			steps++
			if steps > 64 {
				return false
			}
		}
		return steps == Hops(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOutputPortAndNeighborAgree(t *testing.T) {
	rows, cols := 4, 4
	for s := 0; s < rows*cols; s++ {
		for d := 0; d < rows*cols; d++ {
			if s == d {
				continue
			}
			src := topo.NodeFromID(s, cols)
			dst := topo.NodeFromID(d, cols)
			p := OutputPort(src, dst)
			nb, ok := Neighbor(src, p, rows, cols)
			if !ok {
				t.Fatalf("port %v from %v exits grid", p, src)
			}
			if nb != XYNextHop(src, dst) {
				t.Fatalf("Neighbor(%v,%v)=%v != XYNextHop=%v", src, p, nb, XYNextHop(src, dst))
			}
		}
	}
}

func TestNeighborEdges(t *testing.T) {
	if _, ok := Neighbor(topo.Node{Row: 0, Col: 0}, North, 4, 4); ok {
		t.Fatal("north of (0,0) should not exist")
	}
	if _, ok := Neighbor(topo.Node{Row: 3, Col: 3}, East, 4, 4); ok {
		t.Fatal("east of (3,3) should not exist")
	}
	if nb, ok := Neighbor(topo.Node{Row: 1, Col: 1}, West, 4, 4); !ok || nb != (topo.Node{Row: 1, Col: 0}) {
		t.Fatalf("west neighbor = %v, %v", nb, ok)
	}
}

func TestOpposite(t *testing.T) {
	for _, p := range []Port{North, South, East, West} {
		if Opposite(Opposite(p)) != p {
			t.Fatalf("Opposite not involutive for %v", p)
		}
	}
}

func TestPortString(t *testing.T) {
	names := map[Port]string{Local: "local", North: "north", South: "south", West: "west", East: "east"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// AverageHopsClosed is the closed-form mean Manhattan distance over the
// ordered pairs of distinct nodes of a rows×cols mesh, the oracle
// AverageHops is checked against. A dimension of size k contributes
// (k²−1)/(3k) averaged over all k² ordered pairs, self-pairs included;
// scaling by n/(n−1) excludes the self-pairs.
func AverageHopsClosed(rows, cols int) float64 {
	n := float64(rows * cols)
	if n < 2 {
		return 0
	}
	// E[|r1-r2|] over all ordered pairs (including equal) of a dimension
	// of size k is (k²-1)/(3k).
	er := float64(rows*rows-1) / (3 * float64(rows))
	ec := float64(cols*cols-1) / (3 * float64(cols))
	// Total over n² ordered pairs, self-pairs contribute 0.
	return (er + ec) * n * n / (n * (n - 1))
}
