package drl

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"routerless/internal/nn"
	"routerless/internal/obs"
)

// BenchmarkDRLEpisode measures one full exploration cycle (Fig. 4): the
// guided DNN/MCTS prefix plus the Algorithm 1 completion phase and final
// reward. This is the unit of work Run repeats Episodes times per thread.
// Before/after numbers for PR 4 live in BENCH_PR4.json.
func BenchmarkDRLEpisode(b *testing.B) {
	for _, n := range []int{8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			cfg := DefaultConfig(n, 2*(n-1))
			cfg.NN = nn.Config{N: n, BaseChannels: 2, Pools: 2}
			s := MustNew(cfg)
			net := nn.NewPolicyValueNet(cfg.NN, cfg.Seed)
			rng := rand.New(rand.NewSource(7))
			ar := s.newArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.runEpisode(net, rng, cfg.GuidedActions, ar)
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
			net := nn.NewPolicyValueNet(cfg.NN, cfg.Seed)
			rng := rand.New(rand.NewSource(7))
			ar := s.newArena()
			ar.trace = cfg.Trace.Shard("drl.worker.00")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.runEpisode(net, rng, cfg.GuidedActions, ar)
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
// episodes, their policy/value requests coalesce, batch, and hit the
// fingerprint-keyed cache. Like BenchmarkDRLEpisode it omits the training
// step between episodes, so the cache lives across episodes (the search/
// inference regime); in a training run each weight sync invalidates it.
// Reports the cache hit rate alongside ns/op. Baseline numbers live in
// BENCH_PR5.json.
func BenchmarkDRLEpisodeBroker(b *testing.B) {
	const workers = 4
	for _, n := range []int{8, 10} {
		b.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(b *testing.B) {
			cfg := DefaultConfig(n, 2*(n-1))
			cfg.NN = nn.Config{N: n, BaseChannels: 2, Pools: 2}
			cfg.Threads = workers
			cfg.InferBatch = 8
			s := MustNew(cfg)
			stop := s.startBroker()
			defer stop()
			nets := make([]*nn.PolicyValueNet, workers)
			arenas := make([]*episodeArena, workers)
			for w := range nets {
				nets[w] = nn.NewPolicyValueNet(cfg.NN, cfg.Seed+int64(w))
				arenas[w] = s.newArena()
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(7 + int64(w)))
					for next.Add(1) <= int64(b.N) {
						s.runEpisode(nets[w], rng, cfg.GuidedActions, arenas[w])
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			st := s.InferStats()
			if st.Requests > 0 {
				b.ReportMetric(float64(st.Hits)/float64(st.Requests), "cache_hit_rate")
			}
		})
	}
}
