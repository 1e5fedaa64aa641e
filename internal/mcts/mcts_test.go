package mcts

import (
	"sync"
	"testing"

	"routerless/internal/rl"
	"routerless/internal/topo"
)

// step is the path step of the routerless instantiation the tests use.
type step = PathStep[rl.Action]

func act(x1, y1, x2, y2 int, d topo.Direction) rl.Action {
	return rl.Action{X1: x1, Y1: y1, X2: x2, Y2: y2, Dir: d}
}

// totals walks EdgeStats over the given states and returns their edge and
// visit counts.
func totals(tr *Tree[rl.Action], fps ...string) (edges, visits int) {
	for _, fp := range fps {
		for _, e := range tr.EdgeStats(fp) {
			edges++
			visits += e.N
		}
	}
	return edges, visits
}

func TestExpandNormalizesPriors(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	a, b := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []rl.Action{a, b}, []float64{3, 1})
	st := tr.EdgeStats("s")
	if len(st) != 2 {
		t.Fatalf("edges = %d", len(st))
	}
	if st[a].P != 0.75 || st[b].P != 0.25 {
		t.Fatalf("priors = %v / %v", st[a].P, st[b].P)
	}
}

func TestExpandZeroPriorsUniform(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	a, b := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []rl.Action{a, b}, []float64{0, 0})
	st := tr.EdgeStats("s")
	if st[a].P != 0.5 || st[b].P != 0.5 {
		t.Fatalf("priors = %v / %v", st[a].P, st[b].P)
	}
}

func TestExpandDoesNotEraseStats(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	a := act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []rl.Action{a}, []float64{1})
	tr.Backup([]step{{"s", a}}, []float64{2})
	tr.Expand("s", []rl.Action{a}, []float64{1}) // re-expansion
	if st := tr.EdgeStats("s")[a]; st.N != 1 || st.W != 2 {
		t.Fatalf("stats erased: %+v", st)
	}
}

func TestSelectUnknownState(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	if _, ok := tr.Select("nope"); ok {
		t.Fatal("selected from unknown state")
	}
}

func TestSelectPrefersPriorWhenUnvisited(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	hi, lo := act(0, 0, 3, 3, topo.Clockwise), act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []rl.Action{hi, lo}, []float64{0.9, 0.1})
	a, ok := tr.Select("s")
	if !ok || a != hi {
		t.Fatalf("selected %v, want high-prior action", a)
	}
}

func TestSelectShiftsToHighReturn(t *testing.T) {
	tr := NewTree(0.1, rl.ActionLess) // small exploration constant
	good, bad := act(0, 0, 3, 3, topo.Clockwise), act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []rl.Action{good, bad}, []float64{0.1, 0.9})
	// Observed returns favour "good" strongly.
	for i := 0; i < 10; i++ {
		tr.Backup([]step{{"s", good}}, []float64{5})
		tr.Backup([]step{{"s", bad}}, []float64{-5})
	}
	a, ok := tr.Select("s")
	if !ok || a != good {
		t.Fatalf("selected %v despite returns favouring good", a)
	}
}

func TestBackupAccumulates(t *testing.T) {
	tr := NewTree(1, rl.ActionLess)
	a := act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []rl.Action{a}, []float64{1})
	tr.Backup([]step{{"s", a}}, []float64{3})
	tr.Backup([]step{{"s", a}}, []float64{1})
	st := tr.EdgeStats("s")[a]
	if st.N != 2 || st.W != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if v := st.V(); v != 2 {
		t.Fatalf("V = %v", v)
	}
}

func TestBackupUnknownStateIgnored(t *testing.T) {
	tr := NewTree(1, rl.ActionLess)
	tr.Backup([]step{{"missing", act(0, 0, 1, 1, topo.Clockwise)}}, []float64{1})
	if tr.Size() != 0 {
		t.Fatal("backup created a node")
	}
}

func TestBackupLengthMismatchPanics(t *testing.T) {
	tr := NewTree(1, rl.ActionLess)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.Backup([]step{{"s", act(0, 0, 1, 1, topo.Clockwise)}}, nil)
}

func TestTreeConcurrentAccess(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	a := act(0, 0, 1, 1, topo.Clockwise)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Expand("shared", []rl.Action{a}, []float64{1})
				tr.Backup([]step{{"shared", a}}, []float64{1})
				tr.Select("shared")
			}
		}(w)
	}
	wg.Wait()
	st := tr.EdgeStats("shared")[a]
	if st.N != 1600 {
		t.Fatalf("N = %d, want 1600", st.N)
	}
}

// TestTreeConcurrent hammers Expand/Backup/Select/Known/Prune from eight
// goroutines (run under -race in make ci). Every worker replays the same op
// mix, so the final visit counts are exact; and however the operations
// interleave, every node's SumN must equal the sum of its edges' N — the
// conservation Select's U term relies on, which Prune's unwinding of a
// backed-up edge must preserve.
func TestTreeConcurrent(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	fps := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	a := act(0, 0, 1, 1, topo.Clockwise)
	b := act(0, 0, 2, 2, topo.Clockwise)
	doomed := act(1, 1, 3, 3, topo.Counterclockwise)
	for _, fp := range fps {
		tr.Expand(fp, []rl.Action{a, b}, []float64{3, 1})
	}

	const workers, iters = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for k, fp := range fps {
					next := fps[(k+1)%len(fps)]
					tr.Expand(fp, []rl.Action{a, b}, []float64{3, 1})
					// Back up a multi-state path that also visits an
					// extra edge, then prune that edge again so Prune
					// races concurrent Backups of the same node.
					tr.Expand(fp, []rl.Action{doomed}, []float64{1})
					tr.Backup([]step{{fp, a}, {next, b}, {fp, doomed}}, []float64{1, 0.5, -1})
					tr.Select(fp)
					tr.Known(next)
					tr.Prune(fp, doomed)
				}
			}
		}()
	}
	wg.Wait()

	if n := tr.Size(); n != len(fps) {
		t.Fatalf("nodes = %d, want %d", n, len(fps))
	}
	for _, fp := range fps {
		es := tr.EdgeStats(fp)
		if es[a].N != workers*iters || es[b].N != workers*iters {
			t.Fatalf("%s: N(a) = %d, N(b) = %d, want %d each", fp, es[a].N, es[b].N, workers*iters)
		}
		if _, ok := es[doomed]; ok {
			t.Fatalf("%s: doomed edge survived", fp)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for fp, node := range tr.nodes {
		sum := 0
		for _, e := range node.Edges {
			sum += e.N
		}
		if node.SumN != sum {
			t.Fatalf("%s: SumN = %d, edges sum to %d", fp, node.SumN, sum)
		}
	}
}

func TestEdgeVZeroVisits(t *testing.T) {
	e := &Edge{P: 1}
	if e.V() != 0 {
		t.Fatal("unvisited V != 0")
	}
}

// TestSelectTieBreaksLexicographic pins deterministic selection: with
// identical priors and no visits every edge scores the same, and the
// argmax must resolve to the lexicographically smallest action instead of
// whatever the map iteration happens to visit last.
func TestSelectTieBreaksLexicographic(t *testing.T) {
	want := act(0, 0, 1, 1, topo.Clockwise)
	actions := []rl.Action{
		act(2, 2, 3, 3, topo.Clockwise),
		act(0, 1, 2, 2, topo.Counterclockwise),
		act(0, 0, 1, 1, topo.Counterclockwise),
		want,
		act(1, 0, 2, 1, topo.Clockwise),
	}
	priors := []float64{1, 1, 1, 1, 1}
	// Fresh trees get fresh map layouts; repeated trials would flush out a
	// map-order-dependent argmax.
	for trial := 0; trial < 50; trial++ {
		tr := NewTree(1.5, rl.ActionLess)
		tr.Expand("s", actions, priors)
		a, ok := tr.Select("s")
		if !ok || a != want {
			t.Fatalf("trial %d: selected %v, want %v", trial, a, want)
		}
	}
}

// TestEdgesStaySorted pins the flat-node invariant: however edges arrive —
// batch expansion, out-of-order re-expansion, Backup on an unexpanded action
// — the node's edge slice stays sorted by the canonical action order.
func TestEdgesStaySorted(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	tr.Expand("s", []rl.Action{
		act(1, 1, 2, 2, topo.Clockwise),
		act(3, 3, 4, 4, topo.Clockwise),
	}, []float64{1, 1})
	tr.Expand("s", []rl.Action{act(0, 0, 1, 1, topo.Clockwise)}, []float64{1})
	tr.Backup([]step{{"s", act(2, 2, 3, 3, topo.Counterclockwise)}}, []float64{1})
	tr.mu.Lock()
	edges := tr.nodes["s"].Edges
	if len(edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !rl.ActionLess(edges[i-1].Action, edges[i].Action) {
			t.Fatalf("edges out of order at %d: %v !< %v", i, edges[i-1].Action, edges[i].Action)
		}
	}
	tr.mu.Unlock()
}

// TestPruneRemovesEdge verifies Prune drops the edge, unwinds its visits
// from the node sum, and that Select then falls to the survivors.
func TestPruneRemovesEdge(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	doomed, keep := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []rl.Action{doomed, keep}, []float64{0.9, 0.1})
	tr.Backup([]step{{"s", doomed}, {"s", keep}}, []float64{5, 1})
	if !tr.Prune("s", doomed) {
		t.Fatal("Prune reported no edge removed")
	}
	if tr.Prune("s", doomed) {
		t.Fatal("second Prune removed a ghost edge")
	}
	if tr.Prune("missing", keep) {
		t.Fatal("Prune on unknown state reported removal")
	}
	if edges, visits := totals(tr, "s"); edges != 1 || visits != 1 {
		t.Fatalf("after prune: %d edges, %d visits, want 1 and 1", edges, visits)
	}
	a, ok := tr.Select("s")
	if !ok || a != keep {
		t.Fatalf("selected %v after prune, want %v", a, keep)
	}
	tr.mu.Lock()
	if sum := tr.nodes["s"].SumN; sum != 1 {
		t.Fatalf("SumN after prune = %d, want 1", sum)
	}
	tr.mu.Unlock()
}
