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
// copies out in one pass, at both the whole-vector and the default chunked
// lock shapes. BENCH_PR10.json also records the retired apply+snapshotInto
// pair as the before column.
func BenchmarkParamServerRoundTrip(b *testing.B) {
	const dim = 1 << 16
	init := make([]float64, dim)
	grads := make([]float64, dim)
	for i := range grads {
		grads[i] = 0.01 * float64(i%7)
	}
	dst := make([]float64, dim)
	b.Run("fused/whole-lock", func(b *testing.B) {
		ps := newParamServer(init, 1e-3, 1.0, wholeLock, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps.applyAndFetch(grads, dst)
		}
	})
	b.Run("fused/chunked", func(b *testing.B) {
		ps := newParamServer(init, 1e-3, 1.0, defaultParamChunk, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps.applyAndFetch(grads, dst)
		}
	})
}

// BenchmarkParamServerContention measures concurrent workers pushing fused
// round-trips through the whole-vector lock (the "before" regime) versus
// the default chunk striping, where workers pipeline through the vector
// chunk by chunk. SetParallelism forces real goroutine multiplexing on a
// 1-CPU host; contended_frac is the portable signal there.
func BenchmarkParamServerContention(b *testing.B) {
	const dim = 1 << 16
	init := make([]float64, dim)
	grads := make([]float64, dim)
	for i := range grads {
		grads[i] = 0.01 * float64(i%7)
	}
	for _, tc := range []struct {
		name  string
		chunk int
	}{{"whole-lock", wholeLock}, {"chunked", defaultParamChunk}} {
		b.Run(tc.name, func(b *testing.B) {
			ps := newParamServer(init, 1e-3, 1.0, tc.chunk, nil)
			b.SetParallelism(8)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				dst := make([]float64, dim)
				for pb.Next() {
					ps.applyAndFetch(grads, dst)
				}
			})
			b.StopTimer()
			ls := ps.lockStats()
			if ls.Acquires > 0 {
				b.ReportMetric(float64(ls.Contended)/float64(ls.Acquires), "contended_frac")
			}
		})
	}
}

// BenchmarkDRLSearchThreads is the end-to-end §4.6 scaling row: one op is a
// complete 16-episode search (DNN + MCTS + parameter server) split across
// the given learner-thread count, exercising the striped tree and chunked
// server exactly as production Run does. On a multi-core host ns/op should
// fall with threads; on a 1-CPU bench host wall-clock is honestly flat and
// the contended_frac metrics (tree and server) carry the story.
func BenchmarkDRLSearchThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			var treeFrac, servFrac float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(8, 14)
				cfg.NN = nn.Config{N: 8, BaseChannels: 2, Pools: 2}
				cfg.Episodes = 16
				cfg.Threads = threads
				s := MustNew(cfg)
				s.Run()
				ts := s.tree.LockStats()
				if ts.Acquires > 0 {
					treeFrac = float64(ts.Contended) / float64(ts.Acquires)
				}
				ss := s.server.lockStats()
				if ss.Acquires > 0 {
					servFrac = float64(ss.Contended) / float64(ss.Acquires)
				}
			}
			b.ReportMetric(treeFrac, "tree_contended_frac")
			b.ReportMetric(servFrac, "server_contended_frac")
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
