package mcts

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"routerless/internal/rl"
	"routerless/internal/topo"
)

func TestNewTreeStripesRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, DefaultStripes},
		{0, DefaultStripes},
		{1, 1},
		{2, 2},
		{3, 4},
		{60, 64},
		{64, 64},
		{65, 128},
	}
	for _, tc := range cases {
		if got := NewTreeStripes(1.5, rl.ActionLess, tc.in).Stripes(); got != tc.want {
			t.Fatalf("NewTreeStripes(%d): stripes = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewTree(1.5, rl.ActionLess).Stripes(); got != DefaultStripes {
		t.Fatalf("NewTree stripes = %d, want %d", got, DefaultStripes)
	}
}

// stripeFingerprints returns count fingerprints that all land on the same
// stripe as base (colliding) and count that each land elsewhere
// (non-colliding), by brute-forcing synthetic fingerprint strings.
func stripeFingerprints(t *testing.T, tr *Tree[rl.Action], base string, count int) (colliding, others []string) {
	t.Helper()
	home := tr.stripeFor(base)
	for i := 0; len(colliding) < count || len(others) < count; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		if tr.stripeFor(fp) == home {
			if len(colliding) < count {
				colliding = append(colliding, fp)
			}
		} else if len(others) < count {
			others = append(others, fp)
		}
		if i > 1<<20 {
			t.Fatal("could not find colliding/non-colliding fingerprints")
		}
	}
	return colliding, others
}

// TestTreeConcurrentStripes hammers Select/Expand/Backup/Prune from many
// goroutines over fingerprints that deliberately collide on one stripe and
// fingerprints spread across the others (run under -race in make ci). Every
// worker replays the same op mix, so the final visit counts are exact.
func TestTreeConcurrentStripes(t *testing.T) {
	tr := NewTreeStripes(1.5, rl.ActionLess, 8)
	colliding, others := stripeFingerprints(t, tr, "base", 4)
	fps := append(append([]string{}, colliding...), others...)

	a := act(0, 0, 1, 1, topo.Clockwise)
	b := act(0, 0, 2, 2, topo.Clockwise)
	doomed := act(1, 1, 3, 3, topo.Counterclockwise)

	const workers, iters = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			path := make([]step, 1)
			ret := []float64{1}
			for i := 0; i < iters; i++ {
				for _, fp := range fps {
					tr.Expand(fp, []rl.Action{a, b}, []float64{3, 1})
					path[0] = step{Fingerprint: fp, Action: a}
					tr.Backup(path, ret)
					tr.Select(fp)
					tr.Known(fp)
					// Churn an extra edge in and out to exercise
					// Prune against concurrent Backups of edge a.
					tr.Expand(fp, []rl.Action{doomed}, []float64{1})
					tr.Prune(fp, doomed)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := tr.Size(); n != len(fps) {
		t.Fatalf("nodes = %d, want %d", n, len(fps))
	}
	wantVisits := workers * iters * len(fps)
	if _, visits := totals(tr, fps...); visits != wantVisits {
		t.Fatalf("visits = %d, want %d", visits, wantVisits)
	}
	for _, fp := range fps {
		es := tr.EdgeStats(fp)
		if es[a].N != workers*iters {
			t.Fatalf("%s: N(a) = %d, want %d", fp, es[a].N, workers*iters)
		}
		if _, ok := es[doomed]; ok {
			t.Fatalf("%s: doomed edge survived", fp)
		}
	}
	ls := tr.LockStats()
	if ls.Stripes != 8 {
		t.Fatalf("LockStats.Stripes = %d, want 8", ls.Stripes)
	}
	// Every Expand/Backup/Select/Known/Prune acquisition is counted; exact
	// totals depend on scheduling only through contention, which acquires
	// excludes.
	minAcquires := int64(workers * iters * len(fps) * 6)
	if ls.Acquires < minAcquires {
		t.Fatalf("LockStats.Acquires = %d, want >= %d", ls.Acquires, minAcquires)
	}
}

// randomAction draws from a small deterministic pool so trees collide on
// both states and actions.
func randomAction(rng *rand.Rand) rl.Action {
	d := topo.Clockwise
	if rng.Intn(2) == 1 {
		d = topo.Counterclockwise
	}
	return rl.Action{
		X1: rng.Intn(3), Y1: rng.Intn(3),
		X2: 3 + rng.Intn(3), Y2: 3 + rng.Intn(3),
		Dir: d,
	}
}

// TestStripedMatchesWholeLockTrace is the single-thread byte-identity
// oracle for striping: an arbitrary operation sequence applied to a
// 64-stripe tree and to the whole-lock (1-stripe) tree must produce
// identical observable traces — every Select result, every Prune result,
// every Known answer, and at the end identical per-state edge statistics
// and tree sizes. Striping only changes which mutex guards a state, never
// what happens under it.
func TestStripedMatchesWholeLockTrace(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		striped := NewTreeStripes(1.5, rl.ActionLess, 64)
		whole := NewTreeStripes(1.5, rl.ActionLess, 1)
		rng := rand.New(rand.NewSource(seed))
		fps := make([]string, 24)
		for i := range fps {
			fps[i] = fmt.Sprintf("state-%d-%d", seed, i)
		}
		actions := make([]rl.Action, 8)
		arng := rand.New(rand.NewSource(seed * 977))
		for i := range actions {
			actions[i] = randomAction(arng)
		}
		for op := 0; op < 2000; op++ {
			fp := fps[rng.Intn(len(fps))]
			switch rng.Intn(5) {
			case 0:
				k := 1 + rng.Intn(len(actions))
				acts := actions[:k]
				priors := make([]float64, k)
				for i := range priors {
					priors[i] = rng.Float64()
				}
				striped.Expand(fp, acts, priors)
				whole.Expand(fp, acts, priors)
			case 1:
				steps := 1 + rng.Intn(3)
				path := make([]step, steps)
				rets := make([]float64, steps)
				for i := range path {
					path[i] = step{Fingerprint: fps[rng.Intn(len(fps))], Action: actions[rng.Intn(len(actions))]}
					rets[i] = rng.NormFloat64()
				}
				striped.Backup(path, rets)
				whole.Backup(path, rets)
			case 2:
				a1, ok1 := striped.Select(fp)
				a2, ok2 := whole.Select(fp)
				if a1 != a2 || ok1 != ok2 {
					t.Fatalf("seed %d op %d: Select(%q) diverged: (%v,%v) vs (%v,%v)",
						seed, op, fp, a1, ok1, a2, ok2)
				}
			case 3:
				a := actions[rng.Intn(len(actions))]
				if p1, p2 := striped.Prune(fp, a), whole.Prune(fp, a); p1 != p2 {
					t.Fatalf("seed %d op %d: Prune(%q,%v) diverged: %v vs %v", seed, op, fp, a, p1, p2)
				}
			case 4:
				if k1, k2 := striped.Known(fp), whole.Known(fp); k1 != k2 {
					t.Fatalf("seed %d op %d: Known(%q) diverged: %v vs %v", seed, op, fp, k1, k2)
				}
			}
		}
		if n1, n2 := striped.Size(), whole.Size(); n1 != n2 {
			t.Fatalf("seed %d: sizes diverged: %d vs %d", seed, n1, n2)
		}
		for _, fp := range fps {
			e1, e2 := striped.EdgeStats(fp), whole.EdgeStats(fp)
			if len(e1) != len(e2) {
				t.Fatalf("seed %d: %q edge counts diverged: %d vs %d", seed, fp, len(e1), len(e2))
			}
			for a, st1 := range e1 {
				if st2 := e2[a]; st1 != st2 {
					t.Fatalf("seed %d: %q/%v edge stats diverged: %+v vs %+v", seed, fp, a, st1, st2)
				}
			}
		}
	}
}

// TestLockStatsSingleThread pins the telemetry semantics: a single
// goroutine never contends, and acquisitions are counted per operation
// (Backup once per path step).
func TestLockStatsSingleThread(t *testing.T) {
	tr := NewTree(1.5, rl.ActionLess)
	a := act(0, 0, 1, 1, topo.Clockwise)
	tr.Expand("s1", []rl.Action{a}, []float64{1})                          // 1 acquisition
	tr.Expand("s2", []rl.Action{a}, []float64{1})                          // 1
	tr.Backup([]step{{"s1", a}, {"s2", a}, {"s1", a}}, []float64{1, 2, 3}) // 3
	tr.Select("s1")                                                        // 1
	tr.Known("s2")                                                         // 1
	ls := tr.LockStats()
	if ls.Acquires != 7 {
		t.Fatalf("Acquires = %d, want 7", ls.Acquires)
	}
	if ls.Contended != 0 {
		t.Fatalf("Contended = %d on a single goroutine", ls.Contended)
	}
	if ls.MaxStripeNodes < 1 {
		t.Fatalf("MaxStripeNodes = %d, want >= 1", ls.MaxStripeNodes)
	}
}
