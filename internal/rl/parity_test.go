package rl

import (
	"math/rand"
	"testing"

	"routerless/internal/topo"
)

// bruteLegalActions is the original O(N⁴) enumeration, kept in tests as
// the oracle for the score-table-backed Actions.
func bruteLegalActions(e *Env) []Action {
	var out []Action
	for x1 := 0; x1 < e.N-1; x1++ {
		for y1 := 0; y1 < e.N-1; y1++ {
			for x2 := x1 + 1; x2 < e.N; x2++ {
				for y2 := y1 + 1; y2 < e.N; y2++ {
					for _, dir := range []topo.Direction{topo.Clockwise, topo.Counterclockwise} {
						l := topo.MustLoop(x1, y1, x2, y2, dir)
						if e.allowed(l) && e.topo.CheckAdd(l) == nil {
							out = append(out, Action{x1, y1, x2, y2, dir})
						}
					}
				}
			}
		}
	}
	return out
}

// seedRandomDesign plays random (frequently illegal) actions; only the
// valid ones mutate, yielding an arbitrary reachable partial topology.
func seedRandomDesign(e *Env, rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		a := Action{
			X1: rng.Intn(e.N), Y1: rng.Intn(e.N),
			X2: rng.Intn(e.N), Y2: rng.Intn(e.N),
			Dir: topo.Direction(rng.Intn(2)),
		}
		e.Step(a)
	}
}

// TestGreedySearchMatchesBruteRandomized pins the tentpole parity claim:
// on randomized partial topologies (varying N, cap, MaxLoopLen, seeded
// loop sets) the incremental greedySearch returns the identical
// greedyResult — action, pair count, bit-identical gain — to the brute
// rescan, both on the first (all-dirty) scan and across subsequent
// incremental re-scores.
func TestGreedySearchMatchesBruteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5) // 3..7
		cap := rng.Intn(2 * n)
		e := NewEnv(n, cap)
		if rng.Intn(3) == 0 {
			e.MaxLoopLen = 6 + 2*rng.Intn(n)
		}
		seedRandomDesign(e, rng, rng.Intn(20))
		for round := 0; round < 5; round++ {
			inc := greedySearch(e)
			brute := bruteGreedySearch(e)
			if inc != brute {
				t.Fatalf("trial %d round %d (n=%d cap=%d maxlen=%d): incremental %+v != brute %+v",
					trial, round, n, cap, e.MaxLoopLen, inc, brute)
			}
			if !inc.OK {
				break
			}
			if _, kind := e.Step(inc.Action); kind != Valid {
				t.Fatalf("trial %d: greedy action unplayable", trial)
			}
		}
	}
}

// TestLegalActionsMatchBruteRandomized pins Actions / HasLegalAction
// against the original enumeration on the same kind of randomized designs.
func TestLegalActionsMatchBruteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		e := NewEnv(n, 1+rng.Intn(2*n))
		if rng.Intn(4) == 0 {
			e.MaxLoopLen = 4 + 2*rng.Intn(n)
		}
		seedRandomDesign(e, rng, rng.Intn(16))
		got := e.Actions()
		want := bruteLegalActions(e)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d legal actions, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].ID() {
				t.Fatalf("trial %d: action %d = %v, want %v", trial, i, ActionOf(got[i]), want[i])
			}
		}
		if e.HasLegalAction() != (len(want) > 0) {
			t.Fatalf("trial %d: HasLegalAction disagrees with enumeration", trial)
		}
	}
}

// TestGreedyCompleteTraceMatchesBrute drives two environments to wiring
// exhaustion — one through the incremental search, one through the brute
// oracle — and asserts the full added-loop sequences are identical. The
// 8×8 cap-14 and 10×10 cap-18 cases are the benchmark workloads' grids.
func TestGreedyCompleteTraceMatchesBrute(t *testing.T) {
	for _, cfg := range []struct{ n, cap, maxLen int }{
		{4, 6, 0}, {5, 8, 0}, {6, 10, 12}, {8, 14, 0}, {10, 18, 0},
	} {
		inc := NewEnv(cfg.n, cfg.cap)
		brute := NewEnv(cfg.n, cfg.cap)
		inc.MaxLoopLen = cfg.maxLen
		brute.MaxLoopLen = cfg.maxLen
		var incTrace, bruteTrace []Action
		for {
			r := greedySearch(inc)
			if !r.OK {
				break
			}
			if _, kind := inc.Step(r.Action); kind != Valid {
				t.Fatalf("n=%d cap=%d: greedy action %v unplayable", cfg.n, cfg.cap, r.Action)
			}
			incTrace = append(incTrace, r.Action)
		}
		for {
			r := bruteGreedySearch(brute)
			if !r.OK {
				break
			}
			brute.Step(r.Action)
			bruteTrace = append(bruteTrace, r.Action)
		}
		if len(incTrace) != len(bruteTrace) {
			t.Fatalf("n=%d cap=%d: %d loops vs brute %d", cfg.n, cfg.cap, len(incTrace), len(bruteTrace))
		}
		for i := range incTrace {
			if incTrace[i] != bruteTrace[i] {
				t.Fatalf("n=%d cap=%d: loop %d = %v, brute chose %v",
					cfg.n, cfg.cap, i, incTrace[i], bruteTrace[i])
			}
		}
		if inc.Fingerprint() != brute.Fingerprint() {
			t.Fatalf("n=%d cap=%d: completed designs differ", cfg.n, cfg.cap)
		}
	}
}

// TestGreedySearchMatchesBruteLargeGrids covers the largest grids
// topo.Tables serves, 15×15 up to 18×18: after a random prefix, a run of
// greedy steps must match the brute rescan. The 18×18 run takes fewer
// steps, each brute scan there walking 23k rectangles.
func TestGreedySearchMatchesBruteLargeGrids(t *testing.T) {
	for _, c := range []struct{ n, steps int }{{15, 8}, {18, 4}} {
		n := c.n
		e := NewEnv(n, 2*(n-1))
		seedRandomDesign(e, rand.New(rand.NewSource(int64(n))), 12)
		for step := 0; step < c.steps; step++ {
			inc := greedySearch(e)
			brute := bruteGreedySearch(e)
			if inc != brute {
				t.Fatalf("n=%d step %d: incremental %+v != brute %+v", n, step, inc, brute)
			}
			if !inc.OK {
				break
			}
			if _, kind := e.Step(inc.Action); kind != Valid {
				t.Fatalf("n=%d step %d: greedy action unplayable", n, step)
			}
		}
	}
}

// TestScoreTableMatchesRecompute checks the score table's invariants row
// by row after every step of random episodes: legality and CheckCount
// equal a fresh computation, an impOK imprv equals a fresh Imprv, and
// every imprv, stale or not, is at least the fresh one — the monotonicity
// the argmax's pruning relies on. Each trial plays six episodes on one
// environment, the first of 24 steps and the others of 2, and checks the
// table right after each Reset too. The first scores a fresh table, the
// second starts from the snapshot its Reset takes and the third from that
// snapshot's copy, every legal row's imprv exact. The fourth moves the
// topology's cap mid-episode, the fifth starts after a change of the
// environment's cap, and the sixth after a change of MaxLoopLen, which
// changes which rectangles are legal at the empty grid. The last trial
// runs on a 15×15 grid, for two episodes of 4 and 2 steps: each check
// there recomputes 11k rectangles.
func TestScoreTableMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial <= 30; trial++ {
		n, steps, episodes := 3+rng.Intn(6), 24, 6 // 3..8
		if trial == 30 {
			n, steps, episodes = 15, 4, 2
		}
		cap := rng.Intn(2 * n)
		e := NewEnv(n, cap)
		if rng.Intn(3) == 0 {
			e.MaxLoopLen = 4 + 2*rng.Intn(2*n)
		}
		for ep := 0; ep < episodes; ep++ {
			switch ep {
			case 4:
				e.OverlapCap = 1 + rng.Intn(2*n)
			case 5:
				if e.MaxLoopLen == 0 {
					e.MaxLoopLen = 4 + 2*rng.Intn(n-1)
				} else {
					e.MaxLoopLen = 0
				}
			}
			if ep > 0 {
				e.Reset()
				checkScoreTable(t, e, trial, -ep)
				for ri, sc := range e.scores.sc {
					if (sc.cwOK || sc.ccwOK) && !sc.impOK {
						t.Fatalf("trial %d episode %d: rect %d starts without an exact imprv", trial, ep, ri)
					}
				}
				steps = min(steps, 2)
			}
			for step := 0; step < steps; step++ {
				if ep == 3 && step == steps/2 {
					e.topo.SetOverlapCap(1 + rng.Intn(2*n))
				}
				// Greedy picks fill in imprv values; random actions, often
				// illegal, perturb the design elsewhere.
				r := greedySearch(e)
				if !r.OK {
					break
				}
				a := r.Action
				if rng.Intn(2) == 0 {
					a = Action{rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n), topo.Direction(rng.Intn(2))}
				}
				e.Step(a)
				checkScoreTable(t, e, trial, step)
			}
		}
	}
}

func checkScoreTable(t *testing.T, e *Env, trial, step int) {
	t.Helper()
	s := e.scoresSynced()
	for ri := range s.sc {
		sc := &s.sc[ri]
		r := &s.tab.Rects()[ri]
		cw, ccw := r.Loop(topo.Clockwise), r.Loop(topo.Counterclockwise)
		allowed := e.allowed(cw)
		cwOK := allowed && e.topo.CheckAdd(cw) == nil
		ccwOK := allowed && e.topo.CheckAdd(ccw) == nil
		if sc.cwOK != cwOK || sc.ccwOK != ccwOK {
			t.Fatalf("trial %d step %d rect %v: legality (%v,%v), fresh (%v,%v)",
				trial, step, cw, sc.cwOK, sc.ccwOK, cwOK, ccwOK)
		}
		if !cwOK && !ccwOK {
			continue
		}
		if count := CheckCount(e.topo, cw); int(sc.count) != count {
			t.Fatalf("trial %d step %d rect %v: count %d, fresh %d", trial, step, cw, sc.count, count)
		}
		imprv, dir := Imprv(e.topo, cw, cwOK, ccwOK)
		if sc.impOK && (float64(sc.imprv) != imprv || sc.dir != dir) {
			t.Fatalf("trial %d step %d rect %v: imprv %d %v, fresh %v %v",
				trial, step, cw, sc.imprv, sc.dir, imprv, dir)
		}
		if float64(sc.imprv) < imprv {
			t.Fatalf("trial %d step %d rect %v: bound %d below fresh imprv %v",
				trial, step, cw, sc.imprv, imprv)
		}
	}
}

// TestGreedySearchAfterReset verifies the score cache survives environment
// recycling: a Reset must invalidate everything and reproduce the blank-
// design scan.
func TestGreedySearchAfterReset(t *testing.T) {
	e := NewEnv(4, 6)
	first := greedySearch(e)
	GreedyComplete(e)
	e.Reset()
	again := greedySearch(e)
	if first != again {
		t.Fatalf("post-reset scan %+v != fresh scan %+v", again, first)
	}
	fresh := NewEnv(4, 6)
	if got, want := GreedyComplete(e), GreedyComplete(fresh); got != want {
		t.Fatalf("post-reset completion added %d loops, fresh env %d", got, want)
	}
	if e.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("recycled env produced a different design than a fresh env")
	}
}
