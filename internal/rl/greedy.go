package rl

// GreedyResult reports the outcome of one Algorithm 1 scan.
type GreedyResult struct {
	Action Action
	// NewPairs is Algorithm 1's CheckCount for the chosen loop: ordered
	// pairs newly connected.
	NewPairs int
	// Gain is Algorithm 1's Imprv, the hop-count improvement metric.
	Gain float64
	// OK is false when no legal loop exists.
	OK bool
}

// Greedy implements Algorithm 1 of the paper: scan every rectangle, prefer
// the loop that newly connects the most node pairs (CheckCount); break
// ties by the average-hop-count improvement (Imprv), which also selects
// the loop direction. It returns false when no legal loop exists.
func Greedy(e *Env) (Action, bool) {
	r := GreedySearch(e)
	return r.Action, r.OK
}

// GreedySearch is Greedy with the winning loop's metrics exposed, letting
// callers trim exploration branches whose best remaining addition is
// useless (§3.2, "Guided Design Space Search").
//
// It runs over the environment's cached per-rectangle score table: a step
// perturbs only the rectangles whose legality, pair count, or memoized
// hop-improvement actually depend on what changed (see scoreTable), and
// the argmax walks the cached rows in brute-force enumeration order.
// Missing improvement values are filled in only for rectangles that could
// still win: a count below the running best loses outright, and a count
// that ties it loses when its memoized imprv — an upper bound even when
// stale, since Imprv only falls as loops are added — does not beat the
// running best, because the brute scan replaces a tied winner only on a
// strictly larger Imprv.
// Imprv is integer-valued and summed exactly (see ensureImprv), so the
// selection is byte-identical to the full O(N⁴) rescan kept as the test
// oracle (bruteGreedySearch in oracle_test.go).
func GreedySearch(e *Env) GreedyResult {
	s := e.scoresSynced()
	rects := s.tab.Rects()
	bestRect := -1
	bestCount := int32(-1)
	bestImprv := int32(0)
	for ri := range s.sc {
		sc := &s.sc[ri]
		if !sc.cwOK && !sc.ccwOK {
			continue
		}
		if sc.count < bestCount || sc.count == bestCount && sc.imprv <= bestImprv {
			continue
		}
		if !sc.impOK {
			s.ensureImprv(e, int32(ri))
		}
		if sc.count > bestCount || sc.imprv > bestImprv {
			bestCount = sc.count
			bestImprv = sc.imprv
			bestRect = ri
		}
	}
	if bestRect < 0 {
		return GreedyResult{NewPairs: -1}
	}
	r := &rects[bestRect]
	return GreedyResult{
		Action:   Action{r.R1, r.C1, r.R2, r.C2, s.sc[bestRect].dir},
		NewPairs: int(bestCount),
		Gain:     float64(bestImprv),
		OK:       true,
	}
}

// Algorithm 1's stopping rule for GreedyImprove: once the design is fully
// connected, an addition that lowers average hops by less than minGain
// gains nothing, and noGainPatience such additions in a row end the run.
const (
	minGain        = 1e-9
	noGainPatience = 2
)

// GreedyComplete drives Greedy until no legal loop remains, returning the
// number of loops added. It is the pure-heuristic baseline (and the
// fallback used when DRL exploration exhausts its penalty budget).
func GreedyComplete(e *Env) int { return greedyRun(e, false) }

// GreedyImprove drives Greedy until the design stops improving: while not
// fully connected every addition helps; once connected, additions continue
// until noGainPatience in a row each lower average hops by less than
// minGain. It returns the number of loops added.
func GreedyImprove(e *Env) int { return greedyRun(e, true) }

// greedyRun plays Greedy's picks until none is legal or, when stopEarly,
// until the stopping rule ends the run.
func greedyRun(e *Env, stopEarly bool) int {
	added := 0
	noGain := 0
	prev := e.AverageHops()
	for {
		a, ok := Greedy(e)
		if !ok {
			return added
		}
		if _, kind := e.Step(a); kind != Valid {
			// Greedy only proposes checked loops; a non-valid outcome
			// indicates an internal inconsistency.
			panic("rl: greedy proposed an unplayable action")
		}
		added++
		if !stopEarly {
			continue
		}
		h := e.AverageHops()
		if e.FullyConnected() && prev-h < minGain {
			noGain++
		} else {
			noGain = 0
		}
		prev = h
		if noGain >= noGainPatience {
			return added
		}
	}
}
