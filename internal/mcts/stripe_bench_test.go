package mcts

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"routerless/internal/rl"
	"routerless/internal/topo"
)

// BenchmarkTreeContention measures the shared tree under concurrent
// learner-style traffic (Select + Backup per op, the §4.6 hot mix) at the
// whole-lock stripe count (1 — the pre-PR 10 global mutex, the "before"
// column) and the default 64 stripes. SetParallelism raises the goroutine
// count above GOMAXPROCS so lock handoff happens even on a 1-CPU bench
// host; the contended_frac metric (contended acquisitions / total) is the
// portable contention signal when wall-clock is pinned by one core.
func BenchmarkTreeContention(b *testing.B) {
	for _, stripes := range []int{1, 64} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			tr := NewTreeStripes(1.5, rl.ActionLess, stripes)
			const states = 128
			fps := make([]string, states)
			acts := []rl.Action{
				act(0, 0, 1, 1, topo.Clockwise),
				act(0, 0, 2, 2, topo.Clockwise),
				act(1, 1, 3, 3, topo.Counterclockwise),
			}
			priors := []float64{3, 2, 1}
			for i := range fps {
				fps[i] = fmt.Sprintf("state-%04d", i)
				tr.Expand(fps[i], acts, priors)
			}
			b.SetParallelism(8)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				path := make([]step, 1)
				ret := []float64{1}
				for pb.Next() {
					fp := fps[i%states]
					a, _ := tr.Select(fp)
					path[0] = step{Fingerprint: fp, Action: a}
					tr.Backup(path, ret)
					i++
				}
			})
			b.StopTimer()
			ls := tr.LockStats()
			if ls.Acquires > 0 {
				b.ReportMetric(float64(ls.Contended)/float64(ls.Acquires), "contended_frac")
			}
		})
	}
}

// BenchmarkTreeContentionPinned measures learner throughput while a peer
// goroutine repeatedly seizes one state's lock and is descheduled holding
// it (50µs held / 50µs free) — the situation striping exists for: on a
// multi-core host a peer is mid-operation on the tree at all times, and on
// any host the OS can deschedule a lock holder. The measured learners work
// states whose stripe homes are disjoint from the pinned state's, as real
// learners mostly are (each episode walks its own trajectory): under the
// whole lock (stripes=1) they all queue behind the pinned peer anyway;
// with 64 stripes they share no lock with it and keep running. Workers
// yield between operations the way production learners do at broker and
// trainer boundaries — without a scheduling point a 1-CPU host cannot
// rotate goroutines at sub-preemption granularity and the pinned peer
// would starve instead of interfering.
func BenchmarkTreeContentionPinned(b *testing.B) {
	const states = 128
	pinnedFp := "state-pinned"
	probe := NewTreeStripes(1.5, rl.ActionLess, 64)
	pinStripe := probe.stripeFor(pinnedFp)
	fps := make([]string, 0, states)
	for i := 0; len(fps) < states; i++ {
		fp := fmt.Sprintf("state-%04d", i)
		if probe.stripeFor(fp) != pinStripe {
			fps = append(fps, fp)
		}
	}
	for _, stripes := range []int{1, 64} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			tr := NewTreeStripes(1.5, rl.ActionLess, stripes)
			acts := []rl.Action{
				act(0, 0, 1, 1, topo.Clockwise),
				act(0, 0, 2, 2, topo.Clockwise),
				act(1, 1, 3, 3, topo.Counterclockwise),
			}
			priors := []float64{3, 2, 1}
			tr.Expand(pinnedFp, acts, priors)
			for _, fp := range fps {
				tr.Expand(fp, acts, priors)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				pinned := tr.stripeFor(pinnedFp)
				for {
					select {
					case <-stop:
						return
					default:
					}
					pinned.mu.Lock()
					time.Sleep(50 * time.Microsecond)
					pinned.mu.Unlock()
					time.Sleep(50 * time.Microsecond)
				}
			}()
			b.SetParallelism(8)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				path := make([]step, 1)
				ret := []float64{1}
				for pb.Next() {
					fp := fps[i%states]
					a, _ := tr.Select(fp)
					path[0] = step{Fingerprint: fp, Action: a}
					tr.Backup(path, ret)
					i++
					runtime.Gosched()
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
