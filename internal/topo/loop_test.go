package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLoopNormalizesCorners(t *testing.T) {
	l, err := NewLoop(3, 2, 1, 0, Clockwise)
	if err != nil {
		t.Fatal(err)
	}
	if l.R1 != 1 || l.C1 != 0 || l.R2 != 3 || l.C2 != 2 {
		t.Fatalf("got %v, want (1,0)-(3,2)", l)
	}
}

func TestNewLoopRejectsDegenerate(t *testing.T) {
	cases := [][4]int{
		{0, 0, 0, 3}, // single row
		{0, 0, 3, 0}, // single column
		{2, 2, 2, 2}, // single node
	}
	for _, c := range cases {
		if _, err := NewLoop(c[0], c[1], c[2], c[3], Clockwise); err == nil {
			t.Errorf("NewLoop(%v) accepted degenerate rectangle", c)
		}
	}
}

func TestNewLoopRejectsNegative(t *testing.T) {
	if _, err := NewLoop(-1, 0, 2, 2, Clockwise); err == nil {
		t.Fatal("accepted negative corner")
	}
}

func TestLoopLen(t *testing.T) {
	cases := []struct {
		l    Loop
		want int
	}{
		{MustLoop(0, 0, 1, 1, Clockwise), 4},
		{MustLoop(0, 0, 3, 3, Clockwise), 12},
		{MustLoop(0, 0, 2, 5, Counterclockwise), 14},
	}
	for _, c := range cases {
		if got := c.l.Len(); got != c.want {
			t.Errorf("%v.Len() = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestLoopNodesOrderClockwise(t *testing.T) {
	l := MustLoop(0, 0, 2, 2, Clockwise)
	want := []Node{
		{0, 0}, {0, 1}, {0, 2},
		{1, 2}, {2, 2},
		{2, 1}, {2, 0},
		{1, 0},
	}
	got := l.Nodes()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLoopNodesOrderCounterclockwise(t *testing.T) {
	l := MustLoop(0, 0, 2, 2, Counterclockwise)
	want := []Node{
		{0, 0}, {1, 0}, {2, 0},
		{2, 1}, {2, 2},
		{1, 2}, {0, 2},
		{0, 1},
	}
	got := l.Nodes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: IndexOf agrees with the position in Nodes() for every
// perimeter node, in both directions.
func TestLoopIndexOfMatchesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r1, c1 := rng.Intn(6), rng.Intn(6)
		h, w := 1+rng.Intn(5), 1+rng.Intn(5)
		dir := Direction(rng.Intn(2))
		l, err := NewLoop(r1, c1, r1+h, c1+w, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range l.Nodes() {
			if got := l.IndexOf(n); got != i {
				t.Fatalf("loop %v: IndexOf(%v) = %d, want %d", l, n, got, i)
			}
		}
	}
}

func TestLoopIndexOfOffLoop(t *testing.T) {
	l := MustLoop(0, 0, 3, 3, Clockwise)
	if got := l.IndexOf(Node{1, 1}); got != -1 {
		t.Fatalf("interior node index = %d, want -1", got)
	}
	if got := l.IndexOf(Node{5, 5}); got != -1 {
		t.Fatalf("outside node index = %d, want -1", got)
	}
}

// Property: Dist(src,dst) + Dist(dst,src) == Len for distinct perimeter
// nodes, and Next applied Dist times reaches dst.
func TestLoopDistProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		h, w := 1+rng.Intn(4), 1+rng.Intn(4)
		dir := Direction(rng.Intn(2))
		l := MustLoop(0, 0, h, w, dir)
		nodes := l.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		d := l.Dist(src, dst)
		if src == dst {
			if d != 0 {
				t.Fatalf("Dist(x,x) = %d", d)
			}
			continue
		}
		back := l.Dist(dst, src)
		if d+back != l.Len() {
			t.Fatalf("loop %v: %v->%v dist %d + reverse %d != len %d", l, src, dst, d, back, l.Len())
		}
		cur := src
		for i := 0; i < d; i++ {
			cur = l.Next(cur)
		}
		if cur != dst {
			t.Fatalf("loop %v: walking %d hops from %v reached %v, want %v", l, d, src, cur, dst)
		}
	}
}

func TestLoopContains(t *testing.T) {
	l := MustLoop(1, 1, 3, 4, Clockwise)
	if !l.Contains(Node{1, 2}) || !l.Contains(Node{3, 4}) || !l.Contains(Node{2, 1}) {
		t.Fatal("perimeter nodes not contained")
	}
	if l.Contains(Node{2, 2}) || l.Contains(Node{0, 0}) {
		t.Fatal("non-perimeter node contained")
	}
}

// quick-check: reversing direction reverses pairwise distances.
func TestLoopReverseDistQuick(t *testing.T) {
	f := func(h8, w8, i8, j8 uint8) bool {
		h := int(h8%4) + 1
		w := int(w8%4) + 1
		cw := MustLoop(0, 0, h, w, Clockwise)
		ccw := MustLoop(0, 0, h, w, Counterclockwise)
		nodes := cw.Nodes()
		src := nodes[int(i8)%len(nodes)]
		dst := nodes[int(j8)%len(nodes)]
		if src == dst {
			return cw.Dist(src, dst) == 0 && ccw.Dist(src, dst) == 0
		}
		return cw.Dist(src, dst) == ccw.Dist(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	for cols := 1; cols <= 8; cols++ {
		for id := 0; id < 4*cols; id++ {
			if got := NodeFromID(id, cols).ID(cols); got != id {
				t.Fatalf("cols=%d id=%d round-trips to %d", cols, id, got)
			}
		}
	}
}

// Next returns the node that follows on-loop node n along the loop
// circulation, the one-hop walk TestLoopDistProperties checks Dist against.
func (l Loop) Next(n Node) Node {
	nodes := l.Nodes()
	return nodes[(l.IndexOf(n)+1)%len(nodes)]
}
