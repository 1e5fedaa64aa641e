package drl

import (
	"testing"

	"routerless/internal/obs"
)

func assertResultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Episodes != b.Episodes || a.TreeSize != b.TreeSize {
		t.Fatalf("run shape differs: %d episodes/%d nodes vs %d/%d",
			a.Episodes, a.TreeSize, b.Episodes, b.TreeSize)
	}
	if len(a.ValueMSE) != len(b.ValueMSE) {
		t.Fatalf("value-MSE series lengths differ: %d vs %d", len(a.ValueMSE), len(b.ValueMSE))
	}
	for i := range a.ValueMSE {
		if a.ValueMSE[i] != b.ValueMSE[i] {
			t.Fatalf("episode %d value MSE differs: %v vs %v", i, a.ValueMSE[i], b.ValueMSE[i])
		}
	}
	if len(a.Valid) != len(b.Valid) {
		t.Fatalf("valid-design counts differ: %d vs %d", len(a.Valid), len(b.Valid))
	}
	for i := range a.Valid {
		da, db := a.Valid[i], b.Valid[i]
		if da.Episode != db.Episode || da.Loops != db.Loops || da.AvgHops != db.AvgHops ||
			da.Topo.Fingerprint() != db.Topo.Fingerprint() {
			t.Fatalf("valid design %d differs: ep %d/%d loops %d/%d hops %v/%v",
				i, da.Episode, db.Episode, da.Loops, db.Loops, da.AvgHops, db.AvgHops)
		}
	}
	if (a.Best.Topo == nil) != (b.Best.Topo == nil) {
		t.Fatal("one run found a best design, the other did not")
	}
	if a.Best.Topo != nil &&
		(a.Best.AvgHops != b.Best.AvgHops || a.Best.Topo.Fingerprint() != b.Best.Topo.Fingerprint()) {
		t.Fatalf("best designs differ: %.3f vs %.3f", a.Best.AvgHops, b.Best.AvgHops)
	}
}

// The determinism satellite: a single-threaded broker-routed search (batch
// forwards of size 1) must produce a Result identical to the legacy
// per-worker Forward path — same designs, same per-episode value errors,
// same tree. This holds because a sample's Forward result does not depend
// on the batch size and every weight sync also carries the BatchNorm
// running statistics.
func TestSearchBrokerMatchesLegacySingleThread(t *testing.T) {
	legacy := MustNew(quickCfg(4, 6, 6)).Run()

	cfg := quickCfg(4, 6, 6)
	cfg.InferBatch = 8
	brokered := MustNew(cfg).Run()
	assertResultsEqual(t, legacy, brokered)
}

// Broker-routed multithreaded search completes and reports broker activity
// through the shared metrics registry.
func TestSearchBrokerMultiThread(t *testing.T) {
	cfg := quickCfg(4, 6, 12)
	cfg.Threads = 4
	cfg.InferBatch = 4
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s := MustNew(cfg)
	res := s.Run()
	if res.Episodes != 12 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	if len(res.Valid) == 0 {
		t.Fatal("broker-routed multithreaded search found nothing")
	}
	if s.broker != nil {
		t.Fatal("Run left the broker running")
	}
	snap := reg.Snapshot()
	if snap.Counters["infer.requests"] == 0 {
		t.Fatal("no inference requests reached the broker")
	}
	if snap.Counters["infer.batches"] == 0 {
		t.Fatal("broker evaluated no batches")
	}
}

// An -infer-batch far beyond any real learner count must not size anything
// by it: the broker's batch cap is the number of workers, so a 4×4 search
// with InferBatch 1<<62 runs to completion like any other.
func TestSearchBrokerHugeInferBatch(t *testing.T) {
	cfg := quickCfg(4, 6, 4)
	cfg.Threads = 2
	cfg.InferBatch = 1 << 62
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res := MustNew(cfg).Run()
	if res.Episodes != 4 {
		t.Fatalf("episodes = %d, want 4", res.Episodes)
	}
	snap := reg.Snapshot()
	occ := snap.Histograms["infer.batch_occupancy"]
	if occ.Count == 0 || occ.Sum != float64(snap.Counters["infer.requests"]) || occ.Mean() > 2 {
		t.Fatalf("batch occupancy %+v for %d requests, want every request evaluated in batches of at most 2 (the worker count)",
			occ, snap.Counters["infer.requests"])
	}
}
