package search

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// grid builds the base adjacency of a w×h mesh, nodes numbered row-major.
func grid(w, h int) [][]int {
	adj := make([][]int, w*h)
	for id := range adj {
		x, y := id%w, id/w
		if x > 0 {
			adj[id] = append(adj[id], id-1)
		}
		if x < w-1 {
			adj[id] = append(adj[id], id+1)
		}
		if y > 0 {
			adj[id] = append(adj[id], id-w)
		}
		if y < h-1 {
			adj[id] = append(adj[id], id+w)
		}
	}
	return adj
}

// anyLink is a domain rule that allows every link.
func anyLink(a, b int) string { return "" }

func TestCloneIndependent(t *testing.T) {
	g := NewGraph(grid(3, 3), 4, 2, anyLink)
	before := g.Dist(0, 8)
	c := g.Clone()
	if err := c.AddLink(0, 8); err != nil {
		t.Fatal(err)
	}
	if len(g.Links()) != 0 || len(c.Links()) != 1 {
		t.Fatal("clone shares links")
	}
	if g.Dist(0, 8) != before || c.Dist(0, 8) != 1 {
		t.Fatalf("dist(0,8) = %d on the original, %d on the clone; want %d and 1", g.Dist(0, 8), c.Dist(0, 8), before)
	}
	if err := g.AddLink(0, 8); err != nil {
		t.Fatalf("original sees the clone's link: %v", err)
	}
}

func TestDistUnreachableOnDisconnectedBase(t *testing.T) {
	// Two 2x1 islands: {0,1} and {2,3}.
	g := NewGraph([][]int{{1}, {0}, {3}, {2}}, 1, 1, anyLink)
	if d := g.Dist(0, 3); d != -1 {
		t.Fatalf("dist across islands = %d, want -1", d)
	}
	if d := g.Dist(2, 3); d != 1 {
		t.Fatalf("dist inside an island = %d, want 1", d)
	}
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if d := g.Dist(0, 3); d != 3 {
		t.Fatalf("dist after bridging = %d, want 3", d)
	}
}

func TestLinksStoredLowHigh(t *testing.T) {
	g := NewGraph(grid(3, 3), 4, 2, anyLink)
	for _, l := range [][2]int{{8, 0}, {2, 6}} {
		if err := g.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if want := [][2]int{{0, 8}, {2, 6}}; !reflect.DeepEqual(g.Links(), want) {
		t.Fatalf("links = %v, want %v", g.Links(), want)
	}
	// The reversed pair is the same link.
	if err := g.AddLink(8, 0); err == nil {
		t.Fatal("reversed duplicate accepted")
	}
}

func TestSharedRules(t *testing.T) {
	short := func(a, b int) string {
		if a-b > 4 || b-a > 4 {
			return ""
		}
		return "too short"
	}
	g := NewGraph(grid(4, 4), 2, 1, short)
	for _, c := range []struct {
		a, b int
		ok   bool
		why  string
	}{
		{-1, 5, false, "out of range"},
		{3, 16, false, "out of range"},
		{5, 5, false, "self link"},
		{0, 1, false, "base link"},
		{0, 2, false, "domain rule"},
		{0, 15, true, ""},
		{0, 10, false, "port cap"},
		{3, 12, true, ""},
		{5, 14, false, "budget"},
	} {
		if err := g.AddLink(c.a, c.b); (err == nil) != c.ok {
			t.Fatalf("AddLink(%d, %d) = %v, want ok=%v (%s)", c.a, c.b, err, c.ok, c.why)
		}
	}
}

// TestLegalitySweepAllocatesNothing pins the pair enumeration under
// Actions and Greedy: checking every pair, on a blank design and on one
// whose budget is spent, builds no error and allocates nothing.
func TestLegalitySweepAllocatesNothing(t *testing.T) {
	const w = 6
	far := func(a, b int) string {
		dx, dy := a%w-b%w, a/w-b/w
		if dx*dx+dy*dy > 9 {
			return "link longer than the length cap"
		}
		return ""
	}
	g := NewGraph(grid(w, w), 3, 2, far)
	legal := 0
	sweep := func() {
		legal = 0
		for a := 0; a < g.V(); a++ {
			for b := a + 1; b < g.V(); b++ {
				if g.reject(a, b) == "" {
					legal++
				}
			}
		}
	}
	if n := testing.AllocsPerRun(20, sweep); n != 0 || legal == 0 {
		t.Fatalf("blank sweep allocates %v times and finds %d legal pairs", n, legal)
	}
	for _, l := range [][2]int{{0, 14}, {21, 35}, {7, 20}} {
		if err := g.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.links) != g.budget {
		t.Fatal("budget not spent")
	}
	if n := testing.AllocsPerRun(20, sweep); n != 0 || legal != 0 {
		t.Fatalf("full-budget sweep allocates %v times and finds %d legal pairs", n, legal)
	}
}

// TestLinkIDsSortLikeNames pins the link-id contract for every node count
// 2..300: sorting the ids of all pairs a < b orders them as sorting the
// strings "a-b" byte-wise does, and each id decodes to its pair.
func TestLinkIDsSortLikeNames(t *testing.T) {
	var prev, cur []byte
	for v := 2; v <= 300; v++ {
		g := NewGraph(make([][]int, v), 0, 0, anyLink)
		ids := make([]int, 0, v*(v-1)/2)
		for a := 0; a < v; a++ {
			for b := a + 1; b < v; b++ {
				id := g.linkID(a, b)
				if x, y, ok := g.link(id); !ok || x != a || y != b {
					t.Fatalf("V=%d: id %d of %d-%d decodes to %d-%d (ok=%v)", v, id, a, b, x, y, ok)
				}
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for i, id := range ids {
			a, b, _ := g.link(id)
			cur = strconv.AppendInt(append(strconv.AppendInt(cur[:0], int64(a), 10), '-'), int64(b), 10)
			if i > 0 && bytes.Compare(prev, cur) >= 0 {
				t.Fatalf("V=%d: id %d (%s) sorts after id %d (%s), but its name does not", v, id, cur, ids[i-1], prev)
			}
			prev, cur = cur, prev
		}
	}
}
