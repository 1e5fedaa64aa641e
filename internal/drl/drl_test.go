package drl

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"routerless/internal/mcts"
	"routerless/internal/nn"
	"routerless/internal/obs"
	"routerless/internal/rec"
	"routerless/internal/rl"
	"routerless/internal/search"
	"routerless/internal/topo"
)

func quickCfg(n, cap, episodes int) Config {
	cfg := DefaultConfig(n, cap)
	cfg.Episodes = episodes
	cfg.NN = nn.Config{N: n, BaseChannels: 2, Pools: 2}
	return cfg
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{N: 1, OverlapCap: 4}); err == nil {
		t.Fatal("accepted N=1")
	}
	if _, err := New(Config{N: 4, OverlapCap: 0}); err == nil {
		t.Fatal("accepted missing overlap cap")
	}
	if _, err := New(Config{N: 4, OverlapCap: 6, NN: nn.Config{N: 8}}); err == nil {
		t.Fatal("accepted mismatched NN size")
	}
}

// N is bounded by topo.MaxJSONSide on both sides of the range, so a search
// never runs on a grid whose saved model nn.UnmarshalModel would reject.
func TestNewBoundsNoCSize(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{-1, false},
		{1, false},
		{2, true},
		{topo.MaxJSONSide, true},
		{topo.MaxJSONSide + 1, false},
		{40, false},
	} {
		_, err := New(DefaultConfig(tc.n, 2*max(tc.n-1, 1)))
		if (err == nil) != tc.ok {
			t.Errorf("N=%d: err = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

// TestChooseActionPrunesStaleEdges is the regression test for the stale-edge
// leak: penalized (never-legal) actions enter the tree through Backup, and a
// high backed-up return can make such an edge the selection argmax forever.
// The shared per-step choice, search.Choose, run on a worker's arena, must
// prune the unplayable edge and select among the survivors — not abandon
// the node for prior sampling while the dead edge keeps shadowing its
// siblings.
func TestChooseActionPrunesStaleEdges(t *testing.T) {
	cfg := quickCfg(4, 6, 1)
	cfg.UseDNN = false
	s := MustNew(cfg)
	ar := s.newLearner(0)
	env := ar.env
	tree := s.driver.Tree
	env.Reset()
	fp := env.Fingerprint()

	legal := env.Actions()
	priors := make([]float64, len(legal))
	for i := range priors {
		priors[i] = 1
	}
	tree.Expand(fp, legal, priors)
	// A degenerate rectangle is never legal, but its id encodes like any
	// other and Backup happily records it (episodes back up their full path,
	// penalized steps included). The huge return makes it the argmax by a
	// wide margin.
	stale := rl.Action{X1: 1, Y1: 1, X2: 1, Y2: 1, Dir: topo.Clockwise}.ID()
	if _, ok := rl.ActionOf(stale).Loop(); ok || env.Legal(stale) {
		t.Fatal("degenerate action unexpectedly playable")
	}
	tree.Backup([]mcts.PathStep{{Fingerprint: fp, Action: stale}}, []float64{1e6})
	if a, ok := tree.Select(fp, func(int) bool { return true }); !ok || a != stale {
		t.Fatalf("setup: Select returned %v, want the stale edge %v", a, stale)
	}

	rng := rand.New(rand.NewSource(3))
	// ε = 0: never defer to the greedy override.
	a, ok := search.Choose(tree, fp, ar, 0, rng, nil)
	if !ok {
		t.Fatal("Choose found no action")
	}
	if !env.Legal(a) {
		t.Fatalf("Choose returned illegal action %v", rl.ActionOf(a))
	}
	if _, exists := tree.EdgeStats(fp)[stale]; exists {
		t.Fatal("stale edge survived Choose")
	}
	if next, ok := tree.Select(fp, env.Legal); !ok || !env.Legal(next) {
		t.Fatalf("post-prune Select returned %v (ok=%v), want a legal action", rl.ActionOf(next), ok)
	}
}

func TestSearchFindsValidDesigns4x4(t *testing.T) {
	res := MustNew(quickCfg(4, 6, 8)).Run()
	if res.Episodes != 8 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	if len(res.Valid) == 0 {
		t.Fatal("no valid designs found")
	}
	best := res.Best
	if best.Topo == nil || !best.Topo.FullyConnected() {
		t.Fatal("best design not fully connected")
	}
	if best.Topo.MaxOverlap() > 6 {
		t.Fatalf("best design violates cap: overlap %d", best.Topo.MaxOverlap())
	}
	if best.AvgHops <= 0 {
		t.Fatalf("avg hops = %v", best.AvgHops)
	}
}

// The headline property: DRL search matches or beats the REC baseline at
// equal node overlapping (§6.1, Tables 3–4).
func TestSearchBeatsRECAt4x4(t *testing.T) {
	res := MustNew(quickCfg(4, 6, 12)).Run()
	recHops, _ := rec.MustGenerate(4).AverageHops()
	if res.Best.Topo == nil {
		t.Fatal("no design")
	}
	if res.Best.AvgHops > recHops {
		t.Fatalf("DRL %.3f worse than REC %.3f", res.Best.AvgHops, recHops)
	}
}

// TestSearchDeterministicSingleThread pins full single-thread determinism:
// two runs with the same seed must agree on every observable output —
// episode count, per-episode value error, every valid design (discovery
// episode, loop count, hops, and the exact topology), the best design, and
// the tree size. This is the regression guard for map-iteration-order
// nondeterminism in MCTS selection: Tree.Select breaks exact score ties by
// the lexicographically smallest action, so two identical runs traverse
// identical paths.
func TestSearchDeterministicSingleThread(t *testing.T) {
	a := MustNew(quickCfg(4, 6, 5)).Run()
	b := MustNew(quickCfg(4, 6, 5)).Run()
	assertSameResult(t, "rerun", a, b)
}

// assertSameResult fails unless the two search results agree on every
// observable output — episode count, per-episode value error to the bit,
// every valid design (discovery episode, loop count, hops, exact topology),
// the best design, and the tree size.
func assertSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Episodes != b.Episodes || a.TreeSize != b.TreeSize {
		t.Fatalf("%s: run shape differs: %d episodes/%d nodes vs %d/%d",
			label, a.Episodes, a.TreeSize, b.Episodes, b.TreeSize)
	}
	if len(a.ValueMSE) != len(b.ValueMSE) {
		t.Fatalf("%s: value-MSE series lengths differ: %d vs %d", label, len(a.ValueMSE), len(b.ValueMSE))
	}
	for i := range a.ValueMSE {
		if a.ValueMSE[i] != b.ValueMSE[i] {
			t.Fatalf("%s: episode %d value MSE differs: %v vs %v", label, i, a.ValueMSE[i], b.ValueMSE[i])
		}
	}
	if len(a.Valid) != len(b.Valid) {
		t.Fatalf("%s: valid-design counts differ: %d vs %d", label, len(a.Valid), len(b.Valid))
	}
	for i := range a.Valid {
		da, db := a.Valid[i], b.Valid[i]
		if da.Episode != db.Episode || da.Loops != db.Loops || da.AvgHops != db.AvgHops ||
			da.Topo.Fingerprint() != db.Topo.Fingerprint() {
			t.Fatalf("%s: valid design %d differs: ep %d/%d loops %d/%d hops %v/%v",
				label, i, da.Episode, db.Episode, da.Loops, db.Loops, da.AvgHops, db.AvgHops)
		}
	}
	if (a.Best.Topo == nil) != (b.Best.Topo == nil) {
		t.Fatalf("%s: one run found a best design, the other none", label)
	}
	if a.Best.Topo != nil &&
		(a.Best.AvgHops != b.Best.AvgHops || a.Best.Topo.Fingerprint() != b.Best.Topo.Fingerprint()) {
		t.Fatalf("%s: best designs differ: %.3f vs %.3f", label, a.Best.AvgHops, b.Best.AvgHops)
	}
}

// TestSearchMultiThreaded runs four concurrent learners on the shared tree
// and parameter server (this file runs under -race in make ci) and checks
// the invariants of the result, which hold however the episodes
// interleave: one value error per episode, distinct in-range episode
// numbers on the valid designs, every valid design connected and within
// the cap, and Best the first minimum-hop valid design.
func TestSearchMultiThreaded(t *testing.T) {
	const overlapCap, episodes = 6, 8
	cfg := quickCfg(4, overlapCap, episodes)
	cfg.Threads = 4
	res := MustNew(cfg).Run()
	if res.Episodes != episodes {
		t.Fatalf("episodes = %d, want %d", res.Episodes, episodes)
	}
	if len(res.ValueMSE) != episodes {
		t.Fatalf("value-MSE entries = %d, want %d", len(res.ValueMSE), episodes)
	}
	if len(res.Valid) == 0 {
		t.Fatal("multithreaded search found nothing")
	}
	seen := make(map[int]bool, len(res.Valid))
	best := 0
	for i, d := range res.Valid {
		if d.Episode < 1 || d.Episode > episodes || seen[d.Episode] {
			t.Fatalf("valid design %d: episode %d repeated or outside 1..%d", i, d.Episode, episodes)
		}
		seen[d.Episode] = true
		if !d.Topo.FullyConnected() || d.Topo.MaxOverlap() > overlapCap {
			t.Fatalf("valid design %d (episode %d) is disconnected or over the cap", i, d.Episode)
		}
		if d.AvgHops < res.Valid[best].AvgHops {
			best = i
		}
	}
	want := res.Valid[best]
	if res.Best.Episode != want.Episode || res.Best.AvgHops != want.AvgHops ||
		res.Best.Topo.Fingerprint() != want.Topo.Fingerprint() {
		t.Fatalf("Best = episode %d (%.3f hops), want episode %d (%.3f hops)",
			res.Best.Episode, res.Best.AvgHops, want.Episode, want.AvgHops)
	}
}

// TestSearchLearnersShareLane runs four learners at GOMAXPROCS ≥ 2, so
// every learner's conv weight gradients go through nn's one process-wide
// lane at once with the others' (this file runs under -race in make ci),
// and checks that the search still accounts for every episode and records
// only valid designs.
func TestSearchLearnersShareLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.NumCPU())))
	const overlapCap, episodes = 6, 8
	cfg := quickCfg(4, overlapCap, episodes)
	cfg.Threads = 4
	res := MustNew(cfg).Run()
	if res.Episodes != episodes || len(res.ValueMSE) != episodes {
		t.Fatalf("episodes = %d, value-MSE entries = %d, want %d each", res.Episodes, len(res.ValueMSE), episodes)
	}
	for i, d := range res.Valid {
		if !d.Topo.FullyConnected() || d.Topo.MaxOverlap() > overlapCap {
			t.Fatalf("valid design %d (episode %d) is disconnected or over the cap", i, d.Episode)
		}
	}
}

// TestSearchMultiThreadedStriped runs more learners than
// TestSearchMultiThreaded, with an episode count they do not divide, so
// every learner contends on the one tree mutex and the one parameter-server
// mutex at once and the spare episodes go to the first learners (this file
// runs under -race in make ci): the result must still account for exactly
// the requested episodes and record only valid designs. The name dates from
// the lock-striped tree and server it was written for.
func TestSearchMultiThreadedStriped(t *testing.T) {
	const overlapCap, episodes = 6, 10
	cfg := quickCfg(4, overlapCap, episodes)
	cfg.Threads = 8
	res := MustNew(cfg).Run()
	if res.Episodes != episodes {
		t.Fatalf("episodes = %d, want %d", res.Episodes, episodes)
	}
	if len(res.ValueMSE) != episodes {
		t.Fatalf("value-MSE entries = %d, want %d", len(res.ValueMSE), episodes)
	}
	for i, d := range res.Valid {
		if !d.Topo.FullyConnected() || d.Topo.MaxOverlap() > overlapCap {
			t.Fatalf("valid design %d (episode %d) is disconnected or over the cap", i, d.Episode)
		}
	}
}

// TestSearchBatchedTrainingMultiThread exercises the batched trainer on
// concurrent learner goroutines (this file runs under -race in make ci):
// each worker owns its network's batched-train scratch, so only the
// parameter-server exchange is shared.
func TestSearchBatchedTrainingMultiThread(t *testing.T) {
	cfg := quickCfg(4, 6, 8)
	cfg.Threads = 4
	res := MustNew(cfg).Run()
	if res.Episodes != 8 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	for _, d := range res.Valid {
		if !d.Topo.FullyConnected() || d.Topo.MaxOverlap() > 6 {
			t.Fatal("invalid design recorded as valid")
		}
	}
}

func TestSearchAblationNoDNN(t *testing.T) {
	cfg := quickCfg(4, 6, 6)
	cfg.UseDNN = false
	res := MustNew(cfg).Run()
	if len(res.Valid) == 0 {
		t.Fatal("pure-MCTS ablation found nothing")
	}
	if len(res.ValueMSE) != 0 {
		t.Fatal("ValueMSE recorded without a DNN")
	}
}

func TestSearchAblationNoMCTS(t *testing.T) {
	cfg := quickCfg(4, 6, 6)
	cfg.UseMCTS = false
	res := MustNew(cfg).Run()
	if res.TreeSize != 0 {
		t.Fatalf("tree grew (%d nodes) with MCTS disabled", res.TreeSize)
	}
	if len(res.Valid) == 0 {
		t.Fatal("DNN-only ablation found nothing")
	}
}

func TestSearchTracksTrainingSignal(t *testing.T) {
	res := MustNew(quickCfg(4, 6, 6)).Run()
	if len(res.ValueMSE) != 6 {
		t.Fatalf("value MSE entries = %d, want 6", len(res.ValueMSE))
	}
	if res.TreeSize == 0 {
		t.Fatal("tree empty after MCTS search")
	}
}

func TestTighterCapStillSearchable(t *testing.T) {
	// Cap 4 < REC's required 6 on 4x4: REC cannot exist here, DRL can
	// still try (§6.2 "generate feasible designs for larger NoCs").
	cfg := quickCfg(4, 4, 10)
	res := MustNew(cfg).Run()
	for _, d := range res.Valid {
		if d.Topo.MaxOverlap() > 4 {
			t.Fatalf("design exceeds cap 4: %d", d.Topo.MaxOverlap())
		}
	}
	// Finding any valid design under the tight cap is a bonus; the search
	// must at least complete without violating constraints.
	if res.Episodes != 10 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
}

func TestMaxLoopLenConstraintHonored(t *testing.T) {
	cfg := quickCfg(4, 6, 8)
	cfg.MaxLoopLen = 8 // forbids the 12-node perimeter
	res := MustNew(cfg).Run()
	for _, d := range res.Valid {
		for _, l := range d.Topo.Loops() {
			if l.Len() > 8 {
				t.Fatalf("design contains loop of length %d under cap 8", l.Len())
			}
		}
	}
	// The 4x4 corner pair needs a perimeter-12 loop, so no design can be
	// fully connected under this constraint: searches must respect that
	// rather than violating the cap.
	if len(res.Valid) != 0 {
		t.Fatalf("impossible constraint produced %d 'valid' designs", len(res.Valid))
	}
}

func TestWarmStartWeights(t *testing.T) {
	cfg := quickCfg(4, 6, 3)
	s := MustNew(cfg)
	s.Run()
	m := s.Model()
	if m == nil {
		t.Fatal("no model")
	}
	cfg2 := quickCfg(4, 6, 2)
	cfg2.Init = m
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res := s2.Run(); res.Episodes != 2 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	// Another architecture rejected.
	cfg3 := quickCfg(4, 6, 2)
	cfg3.Init = nn.NewPolicyValueNet(nn.Config{N: 4, BaseChannels: 3, Pools: 2}, 0)
	if _, err := New(cfg3); err == nil {
		t.Fatal("accepted an Init model of another architecture")
	}
	// No-DNN searches have no model.
	cfg4 := quickCfg(4, 6, 1)
	cfg4.UseDNN = false
	s4 := MustNew(cfg4)
	s4.Run()
	if s4.Model() != nil {
		t.Fatal("model present without DNN")
	}
}

// TestSavedModelResumesBitExact saves a searcher's model at the end of a
// search and loads it into a new search: that search's first inference
// forward, the empty design's policy evaluation on a learner's network,
// is bit-equal to the saved network's eval forward. The saved running
// statistics have moved away from their initial values, so the check
// fails when a learner drops them.
func TestSavedModelResumesBitExact(t *testing.T) {
	cfg := quickCfg(4, 6, 3)
	s := MustNew(cfg)
	s.Run()
	saved := s.Model()
	state := s.newLearner(0).env.StateInto(nil)
	var want [1]nn.Output
	saved.Forward([][]float64{state}, want[:], false)

	initial := make([]float64, saved.NumStats())
	nn.NewPolicyValueNet(cfg.NN, cfg.Seed).CopyStatsInto(initial)
	trained := make([]float64, saved.NumStats())
	saved.CopyStatsInto(trained)
	if slices.Equal(initial, trained) {
		t.Fatal("training left the BatchNorm running statistics at their initial values")
	}

	blob, err := nn.MarshalModel(saved)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := quickCfg(4, 6, 2)
	cfg2.Init = loaded
	s2 := MustNew(cfg2)
	ar := s2.newLearner(0)
	probs, dir := ar.policyEval(ar.env.StateInto(nil))
	if math.Float64bits(dir) != math.Float64bits(want[0].Dir) {
		t.Fatalf("direction %v after the round trip, %v saved", dir, want[0].Dir)
	}
	for g := range probs {
		for i, p := range probs[g] {
			if w := want[0].CoordProbs[g][i]; math.Float64bits(p) != math.Float64bits(w) {
				t.Fatalf("coordinate group %d prob %d = %v after the round trip, %v saved", g, i, p, w)
			}
		}
	}
}

func TestParamServer(t *testing.T) {
	ps := newParamServer([]float64{1, 2}, 0.5, 1, obs.NewRegistry())
	ps.apply([]float64{2, -4}) // clipped to [1, -1]
	w := ps.snapshot()
	if w[0] != 0.5 || w[1] != 2.5 {
		t.Fatalf("weights = %v", w)
	}
	if ps.updateCount() != 1 {
		t.Fatalf("updates = %d", ps.updateCount())
	}
	// Snapshot is a copy.
	w[0] = 99
	if ps.snapshot()[0] == 99 {
		t.Fatal("snapshot aliases internal weights")
	}
}

func TestParamServerLengthMismatchPanics(t *testing.T) {
	ps := newParamServer([]float64{1}, 0.1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ps.apply([]float64{1, 2})
}
