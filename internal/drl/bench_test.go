package drl

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"routerless/internal/nn"
	"routerless/internal/obs"
	"routerless/internal/search"
)

// noLearn is a learner without its End: a driver episode on it runs the
// guided prefix, the completion, the returns-to-go and the tree backup,
// but no learn step and no bookkeeping, and keeps the full guided budget.
type noLearn struct{ *learner }

func (noLearn) End(search.Outcome, []float64) {}

// BenchmarkDRLEpisode measures one exploration cycle (Fig. 4) through the
// episode driver: the guided DNN/MCTS prefix plus the Algorithm 1
// completion phase, final reward and tree backup, without the learn step.
// Before/after numbers for PR 4 live in BENCH_PR4.json (which predate the
// driver and omit the backup).
func BenchmarkDRLEpisode(b *testing.B) {
	for _, n := range []int{8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			cfg := DefaultConfig(n, 2*(n-1))
			cfg.NN = nn.Config{N: n, BaseChannels: 2, Pools: 2}
			s := MustNew(cfg)
			loop := s.driver.NewLoop(0, noLearn{s.newLearner(0)}, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop.Episode()
			}
		})
	}
}

// BenchmarkDRLEpisodeTraced is BenchmarkDRLEpisode with span recording
// enabled: the worker owns a trace shard and every episode records its
// episode/MCTS/forward spans into the ring. The delta against
// BenchmarkDRLEpisode is the whole cost of -trace on the search hot path
// (`make bench-obs` compares both; BENCH_PR6.json records the numbers).
func BenchmarkDRLEpisodeTraced(b *testing.B) {
	for _, n := range []int{8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			cfg := DefaultConfig(n, 2*(n-1))
			cfg.NN = nn.Config{N: n, BaseChannels: 2, Pools: 2}
			cfg.Trace = obs.NewTracer(1 << 14)
			s := MustNew(cfg)
			l := s.newLearner(0)
			loop := s.driver.NewLoop(0, noLearn{l}, l.trace)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop.Episode()
			}
		})
	}
}

// BenchmarkParamServerRoundTrip measures the per-episode parameter exchange
// at a realistic parameter count: applyAndFetch, which clips, steps, and
// copies out in one pass under the server lock. BENCH_PR10.json also
// records the retired apply+snapshotInto pair as the before column.
func BenchmarkParamServerRoundTrip(b *testing.B) {
	const dim = 1 << 16
	init := make([]float64, dim)
	grads := make([]float64, dim)
	for i := range grads {
		grads[i] = 0.01 * float64(i%7)
	}
	dst := make([]float64, dim)
	ps := newParamServer(init, 1e-3, 1.0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.applyAndFetch(grads, dst)
	}
}

// BenchmarkDRLSearchThreads is the end-to-end §4.6 scaling row: one op is a
// complete 16-episode search (DNN + MCTS + parameter server) split across
// the given learner-thread count, sharing the tree and server exactly as
// production Run does. ns/op falls with threads up to the host's core
// count.
func BenchmarkDRLSearchThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(8, 14)
				cfg.NN = nn.Config{N: 8, BaseChannels: 2, Pools: 2}
				cfg.Episodes = 16
				cfg.Threads = threads
				MustNew(cfg).Run()
			}
		})
	}
}

// BenchmarkDRLEpisodeBroker is BenchmarkDRLEpisode with evaluations routed
// through the shared inference broker: four concurrent workers split b.N
// episodes and their policy/value requests batch into shared forwards.
// Like BenchmarkDRLEpisode it omits the training step between episodes.
// Reports the mean batch occupancy alongside ns/op. Baseline numbers live
// in BENCH_PR5.json.
func BenchmarkDRLEpisodeBroker(b *testing.B) {
	const workers = 4
	for _, n := range []int{8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			cfg := DefaultConfig(n, 2*(n-1))
			cfg.NN = nn.Config{N: n, BaseChannels: 2, Pools: 2}
			cfg.Threads = workers
			cfg.InferBatch = 8
			reg := obs.NewRegistry()
			cfg.Metrics = reg
			s := MustNew(cfg)
			stop := s.startBroker()
			defer stop()
			loops := make([]*search.Loop, workers)
			for w := range loops {
				loops[w] = s.driver.NewLoop(w, noLearn{s.newLearner(w)}, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						loops[w].Episode()
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			if occ := reg.Snapshot().Histograms["infer.batch_occupancy"]; occ.Count > 0 {
				b.ReportMetric(occ.Mean(), "batch_occupancy")
			}
		})
	}
}
