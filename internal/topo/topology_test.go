package topo

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// paperExample builds the 4x4 example from Figure 2(a)/(b) of the paper:
// three loops leaving node (0,1)=F... Here we use a simplified variant with
// known connectivity properties.
func twoByTwo() *Topology {
	t := NewSquare(2, 0)
	if err := t.AddLoop(MustLoop(0, 0, 1, 1, Clockwise)); err != nil {
		panic(err)
	}
	return t
}

func TestTwoByTwoSingleLoop(t *testing.T) {
	tp := twoByTwo()
	if !tp.FullyConnected() {
		t.Fatal("2x2 single loop should be fully connected")
	}
	mean, un := tp.AverageHops()
	if un != 0 {
		t.Fatalf("unconnected = %d", un)
	}
	// Clockwise 4-cycle: distances 1,2,3 from each node; mean = 2.
	if mean != 2 {
		t.Fatalf("mean hops = %v, want 2", mean)
	}
	if tp.MaxOverlap() != 1 {
		t.Fatalf("overlap = %d, want 1", tp.MaxOverlap())
	}
}

func TestAddLoopRejectsDuplicates(t *testing.T) {
	tp := NewSquare(4, 0)
	l := MustLoop(0, 0, 3, 3, Clockwise)
	if err := tp.AddLoop(l); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLoop(l); err != ErrRepetitive {
		t.Fatalf("duplicate add: err = %v, want ErrRepetitive", err)
	}
	// Same rectangle, other direction, is a different loop.
	if err := tp.AddLoop(MustLoop(0, 0, 3, 3, Counterclockwise)); err != nil {
		t.Fatalf("opposite direction rejected: %v", err)
	}
}

func TestAddLoopRejectsOutOfBounds(t *testing.T) {
	tp := NewSquare(4, 0)
	if err := tp.AddLoop(MustLoop(0, 0, 4, 4, Clockwise)); err != ErrOutOfBounds {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestAddLoopEnforcesOverlapCap(t *testing.T) {
	tp := NewSquare(4, 2)
	if err := tp.AddLoop(MustLoop(0, 0, 3, 3, Clockwise)); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLoop(MustLoop(0, 0, 3, 3, Counterclockwise)); err != nil {
		t.Fatal(err)
	}
	// Third loop through corner (0,0) exceeds the cap of 2.
	if err := tp.AddLoop(MustLoop(0, 0, 2, 2, Clockwise)); err != ErrIllegal {
		t.Fatalf("err = %v, want ErrIllegal", err)
	}
	// A loop avoiding saturated nodes is fine.
	if err := tp.AddLoop(MustLoop(1, 1, 2, 2, Clockwise)); err != nil {
		t.Fatalf("legal loop rejected: %v", err)
	}
}

func TestCheckAddDoesNotMutate(t *testing.T) {
	tp := NewSquare(4, 1)
	if err := tp.AddLoop(MustLoop(0, 0, 3, 3, Clockwise)); err != nil {
		t.Fatal(err)
	}
	before := tp.TotalWiring()
	if err := tp.CheckAdd(MustLoop(0, 0, 2, 2, Clockwise)); err != ErrIllegal {
		t.Fatalf("err = %v", err)
	}
	if tp.TotalWiring() != before {
		t.Fatal("CheckAdd mutated the topology")
	}
}

// Figure 2(a) scenario: isolated node cannot communicate.
func TestIsolatedNodeDetected(t *testing.T) {
	tp := NewSquare(4, 0)
	// Loops that avoid node (1,1).
	mustAdd(t, tp, MustLoop(0, 0, 3, 3, Clockwise))
	mustAdd(t, tp, MustLoop(2, 0, 3, 3, Clockwise))
	if tp.FullyConnected() {
		t.Fatal("topology with isolated interior node reported connected")
	}
	pairs := tp.UnconnectedPairs(0)
	found := false
	for _, p := range pairs {
		if p[0] == (Node{1, 1}) || p[1] == (Node{1, 1}) {
			found = true
		}
	}
	if !found {
		t.Fatal("isolated node (1,1) not in unconnected pairs")
	}
}

// Figure 2(b) scenario: in a routerless design, two loops sharing a node do
// NOT connect their other nodes (no ring switching).
func TestNoRingSwitching(t *testing.T) {
	tp := NewSquare(4, 0)
	mustAdd(t, tp, MustLoop(0, 0, 1, 1, Clockwise)) // loop through A-area
	mustAdd(t, tp, MustLoop(1, 1, 3, 3, Clockwise)) // loop sharing node (1,1)
	// (0,0) and (3,3) share no loop even though both reach (1,1).
	if d := tp.Dist(Node{0, 0}, Node{3, 3}); d != -1 {
		t.Fatalf("dist = %d, want -1 (no ring switching allowed)", d)
	}
}

func TestDistPicksShortestLoop(t *testing.T) {
	tp := NewSquare(4, 0)
	big := MustLoop(0, 0, 3, 3, Clockwise)   // dist (0,0)->(0,1) = 1, ->(1,0) = 11
	small := MustLoop(0, 0, 1, 1, Clockwise) // dist (0,0)->(1,0) = 3
	mustAdd(t, tp, big)
	mustAdd(t, tp, small)
	if d := tp.Dist(Node{0, 0}, Node{1, 0}); d != 3 || small.Dist(Node{0, 0}, Node{1, 0}) != 3 {
		t.Fatalf("dist = %d, want 3 via small loop", d)
	}
	// (2,2) lies on neither loop.
	if d := tp.Dist(Node{1, 1}, Node{2, 2}); d != -1 {
		t.Fatalf("(1,1)->(2,2) dist = %d, want -1", d)
	}
}

func TestRemoveLoopReindexes(t *testing.T) {
	tp := NewSquare(4, 0)
	mustAdd(t, tp, MustLoop(0, 0, 3, 3, Clockwise))
	mustAdd(t, tp, MustLoop(0, 0, 1, 1, Clockwise))
	mustAdd(t, tp, MustLoop(2, 2, 3, 3, Clockwise))
	tp.RemoveLoop(1)
	if tp.NumLoops() != 2 {
		t.Fatalf("loops = %d", tp.NumLoops())
	}
	if tp.Overlap(Node{1, 1}) != 0 {
		t.Fatalf("overlap at (1,1) = %d after removal", tp.Overlap(Node{1, 1}))
	}
	if d := tp.Dist(Node{2, 2}, Node{3, 3}); d != 2 {
		t.Fatalf("dist = %d", d)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tp := NewSquare(4, 6)
	mustAdd(t, tp, MustLoop(0, 0, 3, 3, Clockwise))
	c := tp.Clone()
	mustAdd(t, c, MustLoop(0, 0, 1, 1, Clockwise))
	if tp.NumLoops() != 1 || c.NumLoops() != 2 {
		t.Fatal("clone shares state with original")
	}
	if tp.Overlap(Node{0, 0}) != 1 || c.Overlap(Node{0, 0}) != 2 {
		t.Fatal("overlap counters shared")
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := NewSquare(4, 0)
	b := NewSquare(4, 0)
	l1 := MustLoop(0, 0, 3, 3, Clockwise)
	l2 := MustLoop(0, 0, 1, 1, Counterclockwise)
	mustAdd(t, a, l1)
	mustAdd(t, a, l2)
	mustAdd(t, b, l2)
	mustAdd(t, b, l1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ for same loop set")
	}
	mustAdd(t, b, MustLoop(1, 1, 2, 2, Clockwise))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprints equal for different loop sets")
	}
}

// pathCount returns the number of distinct loops connecting src to dst,
// the per-pair count AveragePathDiversity averages.
func pathCount(t *Topology, src, dst Node) int {
	c := 0
	for _, l := range t.loops {
		if l.Dist(src, dst) > 0 {
			c++
		}
	}
	return c
}

func TestPathDiversity(t *testing.T) {
	tp := NewSquare(2, 0)
	mustAdd(t, tp, MustLoop(0, 0, 1, 1, Clockwise))
	mustAdd(t, tp, MustLoop(0, 0, 1, 1, Counterclockwise))
	if pc := pathCount(tp, Node{0, 0}, Node{1, 1}); pc != 2 {
		t.Fatalf("path count = %d, want 2", pc)
	}
	if div := tp.AveragePathDiversity(); div != 2 {
		t.Fatalf("diversity = %v, want 2", div)
	}
}

// TestPathDiversityMatchesPairScan holds the closed form Σ L·(L−1) over
// loops to the per-pair loop count on random designs, unconnected pairs
// included.
func TestPathDiversityMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 2+rng.Intn(6), 2+rng.Intn(6)
		tp := New(rows, cols, 0)
		for k := rng.Intn(15); k > 0; k-- {
			if l, err := NewLoop(rng.Intn(rows), rng.Intn(cols), rng.Intn(rows), rng.Intn(cols), Direction(rng.Intn(2))); err == nil {
				tp.AddLoop(l) // a repeated loop is rejected and skipped
			}
		}
		total := 0
		for s := 0; s < tp.N(); s++ {
			for d := 0; d < tp.N(); d++ {
				total += pathCount(tp, NodeFromID(s, cols), NodeFromID(d, cols))
			}
		}
		n := tp.N()
		if got, want := tp.AveragePathDiversity(), float64(total)/float64(n*(n-1)); got != want {
			t.Fatalf("%dx%d with %d loops: diversity %v, pair scan %v", rows, cols, tp.NumLoops(), got, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tp := NewSquare(4, 6)
	mustAdd(t, tp, MustLoop(0, 0, 3, 3, Clockwise))
	mustAdd(t, tp, MustLoop(1, 1, 2, 3, Counterclockwise))
	b, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != tp.Fingerprint() {
		t.Fatalf("round trip mismatch:\n%s\n%s", back.Fingerprint(), tp.Fingerprint())
	}
	if back.OverlapCap() != 6 || back.Rows() != 4 || back.Cols() != 4 {
		t.Fatal("metadata lost in round trip")
	}
}

func TestHopMatrix2x2(t *testing.T) {
	tp := twoByTwo()
	m := tp.HopMatrixInto(nil)
	if len(m) != 16 {
		t.Fatalf("len = %d, want 4x4", len(m))
	}
	// Figure 5 of the paper: clockwise loop on 2x2. Submatrix for (0,0)
	// is [[0 1],[3 2]].
	want := []float64{
		0, 1 /**/, 3, 0,
		3, 2 /**/, 2, 1,
		/* row block 1 */
		1, 2 /**/, 2, 3,
		0, 3 /**/, 1, 0,
	}
	for i, v := range want {
		if m[i] != v {
			t.Fatalf("m[%d] = %v, want %v\nfull: %v", i, m[i], v, m)
		}
	}
}

func TestHopMatrixUnconnectedSentinel(t *testing.T) {
	tp := NewSquare(4, 0)
	mustAdd(t, tp, MustLoop(0, 0, 1, 1, Clockwise))
	m := tp.HopMatrixInto(nil)
	w := 4 * 4
	// (0,0) -> (3,3) unconnected: entry at block (0,0), inner (3,3).
	v := m[(0*4+3)*w+(0*4+3)]
	if v != UnconnectedHops(4, 4) {
		t.Fatalf("sentinel = %v, want %v", v, UnconnectedHops(4, 4))
	}
	if UnconnectedHops(4, 4) != 20 {
		t.Fatalf("UnconnectedHops(4,4) = %v", UnconnectedHops(4, 4))
	}
}

// Property: HopMatrixInto entries match Dist for random topologies.
func TestHopMatrixMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		tp := NewSquare(n, 0)
		for k := 0; k < 5; k++ {
			r1, c1 := rng.Intn(n-1), rng.Intn(n-1)
			r2 := r1 + 1 + rng.Intn(n-1-r1)
			c2 := c1 + 1 + rng.Intn(n-1-c1)
			l := MustLoop(r1, c1, r2, c2, Direction(rng.Intn(2)))
			if tp.HasLoop(l) {
				continue
			}
			mustAdd(t, tp, l)
		}
		m := tp.HopMatrixInto(nil)
		w := n * n
		for s := 0; s < tp.N(); s++ {
			for d := 0; d < tp.N(); d++ {
				src, dst := NodeFromID(s, n), NodeFromID(d, n)
				want := float64(tp.Dist(src, dst))
				if want < 0 {
					want = UnconnectedHops(n, n)
				}
				got := m[(src.Row*n+dst.Row)*w+(src.Col*n+dst.Col)]
				if got != want {
					t.Fatalf("n=%d %v->%v: matrix %v, dist %v", n, src, dst, got, want)
				}
			}
		}
	}
}

func TestAverageHopsCountsUnconnected(t *testing.T) {
	tp := NewSquare(3, 0)
	mustAdd(t, tp, MustLoop(0, 0, 1, 1, Clockwise))
	_, un := tp.AverageHops()
	// 9 nodes, 72 ordered pairs; the 4-node loop connects 12 pairs.
	if un != 60 {
		t.Fatalf("unconnected = %d, want 60", un)
	}
	connected := 0
	for s := 0; s < tp.N(); s++ {
		for d := 0; d < tp.N(); d++ {
			if s != d && tp.Dist(NodeFromID(s, 3), NodeFromID(d, 3)) > 0 {
				connected++
			}
		}
	}
	if connected != 12 {
		t.Fatalf("connected = %d, want 12", connected)
	}
}

func mustAdd(t *testing.T, tp *Topology, l Loop) {
	t.Helper()
	if err := tp.AddLoop(l); err != nil {
		t.Fatalf("AddLoop(%v): %v", l, err)
	}
}

// TotalWiring returns the total number of node-loop incidences (the sum of
// node overlapping over all nodes).
func (t *Topology) TotalWiring() int {
	s := 0
	for _, v := range t.overlap {
		s += v
	}
	return s
}
