package drl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"routerless/internal/obs"
)

// TestSearchPopulatesTelemetry runs a small instrumented search and checks
// the per-worker counters, gradient gauges, tree size, and event stream.
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
	if kinds[obs.EventRunStart] != 1 || kinds[obs.EventRunStop] != 1 {
		t.Fatalf("run_start/run_stop = %d/%d", kinds[obs.EventRunStart], kinds[obs.EventRunStop])
	}
	if kinds[obs.EventEpisode] != res.Episodes {
		t.Fatalf("episode events = %d, want %d", kinds[obs.EventEpisode], res.Episodes)
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
