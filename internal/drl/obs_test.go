package drl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"routerless/internal/obs"
)

// TestSearchPopulatesTelemetry runs a small instrumented search and checks
// the per-worker counters, gradient gauges, tree size, and episode events.
func TestSearchPopulatesTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	cfg := quickCfg(4, 6, 6)
	cfg.Threads = 2
	cfg.Metrics = reg
	cfg.Events = obs.NewLogger(&buf, obs.LevelDebug)
	res := MustNew(cfg).Run()

	s := reg.Snapshot()
	perWorker := int64(0)
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "drl.worker.") {
			perWorker += v
		}
	}
	if perWorker != int64(res.Episodes) {
		t.Fatalf("per-worker episode counters sum to %d, want %d", perWorker, res.Episodes)
	}
	if s.Counters["drl.valid_designs"] != int64(len(res.Valid)) {
		t.Fatalf("valid_designs = %d, want %d", s.Counters["drl.valid_designs"], len(res.Valid))
	}
	if s.Counters["drl.updates"] != int64(res.Episodes) {
		t.Fatalf("updates = %d, want %d", s.Counters["drl.updates"], res.Episodes)
	}
	if _, ok := s.Gauges["drl.grad_norm_preclip"]; !ok {
		t.Fatal("grad_norm_preclip gauge missing")
	}
	if _, ok := s.Gauges["drl.grad_norm_postclip"]; !ok {
		t.Fatal("grad_norm_postclip gauge missing")
	}
	if got := s.Gauges["drl.tree_size"]; got <= 0 {
		t.Fatalf("tree_size gauge = %v, want > 0", got)
	}
	if s.Histograms["drl.episode_reward_hist"].Count != int64(res.Episodes) {
		t.Fatalf("reward histogram count = %d, want %d",
			s.Histograms["drl.episode_reward_hist"].Count, res.Episodes)
	}

	kinds := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		kinds[e.Event]++
	}
	if len(kinds) != 1 || kinds[obs.EventEpisode] != res.Episodes {
		t.Fatalf("events by kind %v, want only %d episode events", kinds, res.Episodes)
	}
}

// TestProgressDuringRun checks the Progress probe ends at the final tally.
func TestProgressDuringRun(t *testing.T) {
	s := MustNew(quickCfg(4, 6, 4))
	res := s.Run()
	ep, valid := s.Progress()
	if ep != res.Episodes || valid != len(res.Valid) {
		t.Fatalf("Progress() = (%d, %d), want (%d, %d)", ep, valid, res.Episodes, len(res.Valid))
	}
}

// TestOutcomesMatchEpisodeEvents runs a seeded search and checks that
// Result.Outcomes holds one outcome per episode, numbered in order, whose
// Steps and Final are the steps and reward fields of that episode's JSONL
// event.
func TestOutcomesMatchEpisodeEvents(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(4, 6, 8)
	cfg.Seed = 7
	cfg.Events = obs.NewLogger(&buf, obs.LevelDebug)
	res := MustNew(cfg).Run()
	if len(res.Outcomes) != cfg.Episodes {
		t.Fatalf("%d outcomes, want %d", len(res.Outcomes), cfg.Episodes)
	}
	type event struct {
		Event   string  `json:"event"`
		Episode int     `json:"episode"`
		Steps   int     `json:"steps"`
		Reward  float64 `json:"reward"`
	}
	events := map[int]event{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		if e.Event == obs.EventEpisode {
			events[e.Episode] = e
		}
	}
	for i, out := range res.Outcomes {
		e, ok := events[out.Episode]
		if out.Episode != i+1 || !ok {
			t.Fatalf("outcome %d is episode %d (event found: %v)", i, out.Episode, ok)
		}
		if out.Steps != e.Steps || out.Final != e.Reward {
			t.Fatalf("episode %d: outcome steps %d reward %v, event steps %d reward %v",
				out.Episode, out.Steps, out.Final, e.Steps, e.Reward)
		}
	}
}

// TestBestHopsCurve checks the quality-over-time curve of a seeded search:
// episodes ascend, hops strictly fall, the last pair is Best, and a
// same-seed single-learner run gives the same curve.
func TestBestHopsCurve(t *testing.T) {
	cfg := quickCfg(5, 8, 24)
	cfg.Seed = 3
	res := MustNew(cfg).Run()
	curve := res.BestHopsCurve()
	if len(curve) == 0 {
		t.Fatalf("empty curve from %d valid designs", len(res.Valid))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i][0] <= curve[i-1][0] || curve[i][1] >= curve[i-1][1] {
			t.Fatalf("curve not improving at %d: %v", i, curve)
		}
	}
	if last := curve[len(curve)-1]; last != [2]float64{float64(res.Best.Episode), res.Best.AvgHops} {
		t.Fatalf("last pair %v, best is episode %d at %v hops", last, res.Best.Episode, res.Best.AvgHops)
	}
	if again := MustNew(cfg).Run().BestHopsCurve(); !slices.Equal(again, curve) {
		t.Fatalf("same seed gave curve %v, then %v", curve, again)
	}

	// Learners record designs out of episode order; the curve sorts them.
	out := Result{Valid: []Design{
		{Episode: 3, AvgHops: 5}, {Episode: 1, AvgHops: 6}, {Episode: 2, AvgHops: 5.5},
		{Episode: 4, AvgHops: 5}, {Episode: 5, AvgHops: 4},
	}}
	want := [][2]float64{{1, 6}, {2, 5.5}, {3, 5}, {5, 4}}
	if got := out.BestHopsCurve(); !slices.Equal(got, want) {
		t.Fatalf("out-of-order curve %v, want %v", got, want)
	}
}
