package rl

import (
	"math/rand"
	"strconv"
	"testing"

	"routerless/internal/nn"
	"routerless/internal/tensor"
	"routerless/internal/topo"
)

// benchTraj synthesizes an H-step trajectory of random states and actions
// on an N×N grid — the trainer's workload without the episode machinery,
// so the benchmark isolates Accumulate itself.
func benchTraj(nc, h int, rng *rand.Rand) episode {
	side := nc * nc
	traj := episode{final: 3.5}
	for t := 0; t < h; t++ {
		st := make([]float64, side*side)
		for i := range st {
			st[i] = float64(rng.Intn(5 * nc))
		}
		traj.Steps = append(traj.Steps, StepRecord{
			State: st,
			Action: Action{X1: rng.Intn(nc), Y1: rng.Intn(nc),
				X2: rng.Intn(nc), Y2: rng.Intn(nc), Dir: topo.Clockwise},
		})
		traj.rewards = append(traj.rewards, rng.Float64())
	}
	return traj
}

// BenchmarkA2CAccumulate is the trainer benchmark: the full trajectory
// update (forward + head gradients + backward for every step) on the net
// the search trains (drl.DefaultConfig's: four base channels, three
// pools), the sequential per-step oracle versus the batched Accumulate at
// its default tile, over trajectory lengths H ∈ {4, 8, 16, 32}; a
// 30-episode search trains on 2–4 steps an episode. Report ns/step to
// compare across H. The oracle allocates four small logit rows per step,
// so only the batched row pins allocs/op. Run with -cpu 1,2 to set the
// in-line backward beside the one whose conv weight gradients run on the
// second CPU. Numbers for the older two-channel net live in
// BENCH_PR9.json.
func BenchmarkA2CAccumulate(b *testing.B) {
	for _, mode := range []struct {
		name  string
		train func(*A2C, *nn.PolicyValueNet, episode, []float64) float64
	}{{"seq", (*A2C).accumulateSequential}, {"batched", func(a *A2C, net *nn.PolicyValueNet, ep episode, returns []float64) float64 {
		return a.Accumulate(net, ep.Trajectory, returns)
	}}} {
		for _, nc := range []int{8, 10} {
			for _, h := range []int{4, 8, 16, 32} {
				b.Run(mode.name+"/"+strconv.Itoa(nc)+"x"+strconv.Itoa(nc)+"/H"+strconv.Itoa(h), func(b *testing.B) {
					net := nn.NewPolicyValueNet(nn.Config{N: nc, BaseChannels: 4, Pools: 3}, 1)
					rng := rand.New(rand.NewSource(7))
					traj := benchTraj(nc, h, rng)
					returns := returnsToGo(traj, testGamma)
					a2c := DefaultA2C()
					net.ZeroGrads()
					mode.train(&a2c, net, traj, returns) // warm scratch and arenas
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						mode.train(&a2c, net, traj, returns)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h), "ns/step")
				})
			}
		}
	}
}

// BenchmarkGreedyEpisode times Algorithm 1's part of a search episode:
// Reset, n/2 random legal loops standing in for the guided phase, then the
// GreedyImprove completion, on the 8×8 cap-14 and 10×10 cap-18 grids of
// the search workloads, with each Imprv body the host has (ensureImprv's
// portable loop and its AVX-512 kernel). Both bodies play the same loops.
func BenchmarkGreedyEpisode(b *testing.B) {
	for _, g := range []struct{ n, cap int }{{8, 14}, {10, 18}} {
		for _, body := range []string{"go", "avx512"} {
			name := strconv.Itoa(g.n) + "x" + strconv.Itoa(g.n) + "/" + body
			b.Run(name, func(b *testing.B) {
				restore, ok := tensor.SetSIMD(body)
				if !ok {
					b.Skip("host has no AVX-512F")
				}
				defer restore()
				e := NewEnv(g.n, g.cap)
				rng := rand.New(rand.NewSource(1))
				episode := func() {
					e.Reset()
					for i := 0; i < g.n/2; i++ {
						ids := e.Actions()
						e.Step(ActionOf(ids[rng.Intn(len(ids))]))
					}
					GreedyImprove(e)
				}
				episode() // build the score table
				episode() // and its empty-grid snapshot
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					episode()
				}
			})
		}
	}
}
