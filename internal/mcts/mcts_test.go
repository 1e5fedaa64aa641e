package mcts

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"routerless/internal/rl"
	"routerless/internal/topo"
)

// act is the id of a routerless loop addition, the actions most tests use.
func act(x1, y1, x2, y2 int, d topo.Direction) int {
	return rl.Action{X1: x1, Y1: y1, X2: x2, Y2: y2, Dir: d}.ID()
}

// anyAction is the legality test of a state where every edge is playable.
func anyAction(int) bool { return true }

// totals walks EdgeStats over the given states and returns their edge and
// visit counts.
func totals(tr *Tree, fps ...string) (edges, visits int) {
	for _, fp := range fps {
		for _, e := range tr.EdgeStats(fp) {
			edges++
			visits += e.N
		}
	}
	return edges, visits
}

func TestExpandNormalizesPriors(t *testing.T) {
	tr := NewTree(1.5)
	a, b := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []int{a, b}, []float64{3, 1})
	st := tr.EdgeStats("s")
	if len(st) != 2 {
		t.Fatalf("edges = %d", len(st))
	}
	if st[a].P != 0.75 || st[b].P != 0.25 {
		t.Fatalf("priors = %v / %v", st[a].P, st[b].P)
	}
}

func TestExpandZeroPriorsUniform(t *testing.T) {
	tr := NewTree(1.5)
	a, b := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []int{a, b}, []float64{0, 0})
	st := tr.EdgeStats("s")
	if st[a].P != 0.5 || st[b].P != 0.5 {
		t.Fatalf("priors = %v / %v", st[a].P, st[b].P)
	}
}

// TestExpandKeepsExistingState pins that Expand only creates leaves: a
// second expansion of a state, with other actions and other priors, leaves
// its edges, priors and statistics exactly as they were.
func TestExpandKeepsExistingState(t *testing.T) {
	tr := NewTree(1.5)
	a, b := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []int{a}, []float64{1})
	tr.Backup([]PathStep{{"s", a}}, []float64{2})
	before := tr.EdgeStats("s")
	tr.Expand("s", []int{a, b}, []float64{1, 3})
	if after := tr.EdgeStats("s"); !reflect.DeepEqual(after, before) {
		t.Fatalf("re-expansion changed the state: %v, want %v", after, before)
	}
	if st := before[a]; st.N != 1 || st.W != 2 || st.P != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSelectUnknownState(t *testing.T) {
	tr := NewTree(1.5)
	if _, ok := tr.Select("nope", anyAction); ok {
		t.Fatal("selected from unknown state")
	}
}

func TestSelectPrefersPriorWhenUnvisited(t *testing.T) {
	tr := NewTree(1.5)
	hi, lo := act(0, 0, 3, 3, topo.Clockwise), act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []int{hi, lo}, []float64{0.9, 0.1})
	a, ok := tr.Select("s", anyAction)
	if !ok || a != hi {
		t.Fatalf("selected %v, want high-prior action", a)
	}
}

func TestSelectShiftsToHighReturn(t *testing.T) {
	tr := NewTree(0.1) // small exploration constant
	good, bad := act(0, 0, 3, 3, topo.Clockwise), act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []int{good, bad}, []float64{0.1, 0.9})
	// Observed returns favour "good" strongly.
	for i := 0; i < 10; i++ {
		tr.Backup([]PathStep{{"s", good}}, []float64{5})
		tr.Backup([]PathStep{{"s", bad}}, []float64{-5})
	}
	a, ok := tr.Select("s", anyAction)
	if !ok || a != good {
		t.Fatalf("selected %v despite returns favouring good", a)
	}
}

func TestBackupAccumulates(t *testing.T) {
	tr := NewTree(1)
	a := act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s", []int{a}, []float64{1})
	tr.Backup([]PathStep{{"s", a}}, []float64{3})
	tr.Backup([]PathStep{{"s", a}}, []float64{1})
	st := tr.EdgeStats("s")[a]
	if st.N != 2 || st.W != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if v := st.V(); v != 2 {
		t.Fatalf("V = %v", v)
	}
}

func TestBackupUnknownStateIgnored(t *testing.T) {
	tr := NewTree(1)
	tr.Backup([]PathStep{{"missing", act(0, 0, 1, 1, topo.Clockwise)}}, []float64{1})
	if tr.Size() != 0 {
		t.Fatal("backup created a node")
	}
}

func TestBackupLengthMismatchPanics(t *testing.T) {
	tr := NewTree(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.Backup([]PathStep{{"s", act(0, 0, 1, 1, topo.Clockwise)}}, nil)
}

func TestTreeConcurrentAccess(t *testing.T) {
	tr := NewTree(1.5)
	a := act(0, 0, 1, 1, topo.Clockwise)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Expand("shared", []int{a}, []float64{1})
				tr.Backup([]PathStep{{"shared", a}}, []float64{1})
				tr.Select("shared", anyAction)
			}
		}(w)
	}
	wg.Wait()
	st := tr.EdgeStats("shared")[a]
	if st.N != 1600 {
		t.Fatalf("N = %d, want 1600", st.N)
	}
}

// TestTreeConcurrent hammers Expand/Backup/Select from eight goroutines
// (run under -race in make ci). Every worker replays the same op mix, so
// the final visit counts are exact; and however the operations
// interleave, every node's SumN must equal the sum of its edges' N — the
// conservation Select's U term relies on, which Select's unwinding of a
// rejected, backed-up edge must preserve.
func TestTreeConcurrent(t *testing.T) {
	tr := NewTree(1.5)
	fps := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	a := act(0, 0, 1, 1, topo.Clockwise)
	b := act(0, 0, 2, 2, topo.Clockwise)
	doomed := act(1, 1, 3, 3, topo.Counterclockwise)
	notDoomed := func(x int) bool { return x != doomed }
	for _, fp := range fps {
		tr.Expand(fp, []int{a, b}, []float64{3, 1})
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
					tr.Expand(fp, []int{a, b}, []float64{3, 1})
					// Back up a multi-state path that also records the
					// unplayable doomed edge with a return that makes it
					// the argmax, so the Select after it prunes the edge
					// while other workers back it up again.
					tr.Backup([]PathStep{{fp, a}, {next, b}, {fp, doomed}}, []float64{1, 0.5, 10})
					if got, ok := tr.Select(fp, notDoomed); !ok || got == doomed {
						panic("Select returned the rejected edge")
					}
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

// TestSelectTieBreaksLexicographic pins deterministic selection: when
// every edge scores the same, the argmax must resolve to the smallest id,
// the lexicographically smallest routerless action, instead of whatever
// the map iteration happens to visit last. The ties arise two ways: an expansion with
// identical priors and no visits (Expand takes its actions in tree order),
// and edges that Backup records, in scrambled order, with equal returns.
func TestSelectTieBreaksLexicographic(t *testing.T) {
	want := act(0, 0, 1, 1, topo.Clockwise)
	scrambled := []int{
		act(2, 2, 3, 3, topo.Clockwise),
		act(0, 1, 2, 2, topo.Counterclockwise),
		act(0, 0, 1, 1, topo.Counterclockwise),
		want,
		act(1, 0, 2, 1, topo.Clockwise),
	}
	sorted := slices.Clone(scrambled)
	slices.Sort(sorted)
	priors := []float64{1, 1, 1, 1, 1}
	path := make([]PathStep, len(scrambled))
	for i, a := range scrambled {
		path[i] = PathStep{Fingerprint: "s", Action: a}
	}
	// Fresh trees get fresh map layouts; repeated trials would flush out a
	// map-order-dependent argmax.
	for trial := 0; trial < 50; trial++ {
		expanded := NewTree(1.5)
		expanded.Expand("s", sorted, priors)
		backed := NewTree(1.5)
		backed.Expand("s", nil, nil)
		backed.Backup(path, priors)
		for _, tr := range []*Tree{expanded, backed} {
			if a, ok := tr.Select("s", anyAction); !ok || a != want {
				t.Fatalf("trial %d: selected %v, want %v", trial, a, want)
			}
		}
	}
}

// TestEdgesStaySorted pins the flat-node invariant: edges from an
// expansion and edges Backup records for unexpanded actions, before,
// between and after them, keep the node's edge slice sorted by id.
func TestEdgesStaySorted(t *testing.T) {
	tr := NewTree(1.5)
	tr.Expand("s", []int{
		act(1, 1, 2, 2, topo.Clockwise),
		act(3, 3, 4, 4, topo.Clockwise),
	}, []float64{1, 1})
	tr.Backup([]PathStep{
		{"s", act(2, 2, 3, 3, topo.Counterclockwise)},
		{"s", act(0, 0, 1, 1, topo.Clockwise)},
		{"s", act(4, 4, 5, 5, topo.Clockwise)},
	}, []float64{1, 1, 1})
	tr.mu.Lock()
	edges := tr.nodes["s"].Edges
	if len(edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].Action >= edges[i].Action {
			t.Fatalf("edges out of order at %d: %v !< %v", i, edges[i-1].Action, edges[i].Action)
		}
	}
	tr.mu.Unlock()
}

// TestSelectPrunesRejectedEdge verifies that Select drops an argmax edge
// its legality test rejects, unwinds the edge's visits from the node sum,
// and selects among the survivors; an unknown state, or a state whose
// every edge is rejected, selects nothing.
func TestSelectPrunesRejectedEdge(t *testing.T) {
	tr := NewTree(1.5)
	doomed, keep := act(0, 0, 1, 1, topo.Clockwise), act(0, 0, 2, 2, topo.Clockwise)
	tr.Expand("s", []int{doomed, keep}, []float64{0.9, 0.1})
	tr.Backup([]PathStep{{"s", doomed}, {"s", keep}}, []float64{5, 1})
	notDoomed := func(a int) bool { return a != doomed }
	a, ok := tr.Select("s", notDoomed)
	if !ok || a != keep {
		t.Fatalf("selected %v (ok=%v), want %v", a, ok, keep)
	}
	if edges, visits := totals(tr, "s"); edges != 1 || visits != 1 {
		t.Fatalf("after prune: %d edges, %d visits, want 1 and 1", edges, visits)
	}
	tr.mu.Lock()
	if sum := tr.nodes["s"].SumN; sum != 1 {
		t.Fatalf("SumN after prune = %d, want 1", sum)
	}
	tr.mu.Unlock()
	if _, ok := tr.Select("missing", anyAction); ok {
		t.Fatal("selected from an unknown state")
	}
	none := func(int) bool { return false }
	if a, ok := tr.Select("s", none); ok {
		t.Fatalf("selected %v with every edge rejected", a)
	}
	if edges, _ := totals(tr, "s"); edges != 0 {
		t.Fatalf("%d edges left after every edge was rejected", edges)
	}
}

// selectAny is Eq. 21's argmax over every edge of the state, with no
// legality test. With prune it makes selectPruneLoop, the reference
// TestSelectMatchesPruneLoop holds Select to.
func (t *Tree) selectAny(fp string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	node, ok := t.nodes[fp]
	if !ok || len(node.Edges) == 0 {
		return 0, false
	}
	sqrtSum := math.Sqrt(float64(node.SumN) + 1)
	best := 0
	bestScore := math.Inf(-1)
	for i := range node.Edges {
		e := &node.Edges[i].Edge
		score := t.C*e.P*sqrtSum/(1+float64(e.N)) + e.V()
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	return node.Edges[best].Action, true
}

// prune removes the edge for action a from the state and unwinds its
// visits from the node's sum.
func (t *Tree) prune(fp string, a int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	node, ok := t.nodes[fp]
	if !ok {
		return
	}
	if i, ok := node.find(a); ok {
		node.SumN -= node.Edges[i].N
		node.Edges = append(node.Edges[:i], node.Edges[i+1:]...)
	}
}

// selectPruneLoop is the reference for Select with a legality test:
// select, and while the selected edge is rejected, prune it and select
// again.
func selectPruneLoop(t *Tree, fp string, legal func(int) bool) (int, bool) {
	for {
		a, ok := t.selectAny(fp)
		if !ok || legal(a) {
			return a, ok
		}
		t.prune(fp, a)
	}
}

// TestSelectMatchesPruneLoop holds Select to the select-then-prune loop it
// replaces, on random trees: expanded edges with priors that tie, edges
// that only Backup inserted (prior 0), returns of both signs, and a
// legality test that rejects a random subset. Both trees receive the same
// operations, and after every Select they must have returned the same
// action and hold the same edges and visit sum.
func TestSelectMatchesPruneLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		c := 0.5 + rng.Float64()*2
		got, want := NewTree(c), NewTree(c)
		var actions []int
		var priors []float64
		for a := 0; a < 40; a++ {
			if rng.Intn(3) > 0 {
				actions = append(actions, a)
				priors = append(priors, float64(rng.Intn(4)))
			}
		}
		for _, tr := range []*Tree{got, want} {
			tr.Expand("s", actions, priors)
		}
		for round := 0; round < 6; round++ {
			path := make([]PathStep, rng.Intn(12))
			returns := make([]float64, len(path))
			for i := range path {
				path[i] = PathStep{Fingerprint: "s", Action: rng.Intn(48)}
				returns[i] = float64(rng.Intn(9) - 4)
			}
			got.Backup(path, returns)
			want.Backup(path, returns)
			rejected := map[int]bool{}
			for a := 0; a < 48; a++ {
				rejected[a] = rng.Intn(4) == 0
			}
			legal := func(a int) bool { return !rejected[a] }
			ga, gok := got.Select("s", legal)
			wa, wok := selectPruneLoop(want, "s", legal)
			if ga != wa || gok != wok {
				t.Fatalf("trial %d round %d: Select = %d (ok=%v), prune loop = %d (ok=%v)", trial, round, ga, gok, wa, wok)
			}
			if !reflect.DeepEqual(got.nodes["s"], want.nodes["s"]) {
				t.Fatalf("trial %d round %d: trees differ:\n%+v\n%+v", trial, round, got.nodes["s"], want.nodes["s"])
			}
		}
	}
}

// rootActions returns the ids of the 1,568 legal actions of a blank 8×8
// design, in tree order.
func rootActions() []int {
	return rl.NewEnv(8, 14).Actions()
}

// BenchmarkTreeExpand builds the 8×8 root leaf, 1,568 actions with their
// priors, in a fresh tree per op.
func BenchmarkTreeExpand(b *testing.B) {
	actions := rootActions()
	priors := make([]float64, len(actions))
	for i := range priors {
		priors[i] = float64(i%7 + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTree(1.5).Expand("root", actions, priors)
	}
}

// BenchmarkTreeSelect selects at a visited 8×8 root: 1,568 expanded edges
// after 4,096 one-step backups, plus 16 edges Backup recorded for
// penalized actions, which the legality test rejects. In first-legal the
// rejected edges score low and each op is one argmax pass; in prune-4 four
// of them outscore every legal edge, so each op restores the node (one
// copy of its edges) and Select prunes the four before it returns.
func BenchmarkTreeSelect(b *testing.B) {
	actions := rootActions()
	priors := make([]float64, len(actions))
	for i := range priors {
		priors[i] = float64(i%7 + 1)
	}
	// Degenerate rectangles are never legal and sort among the actions.
	penalized := make([]int, 16)
	for i := range penalized {
		penalized[i] = act(i%8, i/8, i%8, i/8, topo.Clockwise)
	}
	legal := func(id int) bool { a := rl.ActionOf(id); return a.X1 != a.X2 }
	for _, bc := range []struct {
		name  string
		prune int
	}{{"first-legal", 0}, {"prune-4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := NewTree(1.5)
			tr.Expand("root", actions, priors)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 4096; i++ {
				a := actions[rng.Intn(len(actions))]
				tr.Backup([]PathStep{{"root", a}}, []float64{rng.Float64()})
			}
			for i, a := range penalized {
				r := -1.0
				if i < bc.prune {
					r = 100
				}
				tr.Backup([]PathStep{{"root", a}}, []float64{r})
			}
			node := tr.nodes["root"]
			saved, sumN := append([]EdgeEntry(nil), node.Edges...), node.SumN
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.prune > 0 {
					node.Edges, node.SumN = append(node.Edges[:0], saved...), sumN
				}
				if _, ok := tr.Select("root", legal); !ok {
					b.Fatal("no edge selected")
				}
			}
		})
	}
}
