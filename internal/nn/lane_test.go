package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"routerless/internal/tensor"
)

// withProcs runs f at GOMAXPROCS procs and restores the previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// laneProcs is a GOMAXPROCS at which Backward hands conv weight gradients
// to the lane, whatever the host's CPU count.
func laneProcs() int { return max(2, runtime.NumCPU()) }

// trainRun is what trainTiles produced: the value MSE of each round, and
// the gradients, weights and BatchNorm running statistics after each.
type trainRun struct {
	mse                 []float64
	grads, weights, bns [][]float64
}

// trainTiles trains net for three rounds on a trajectory of steps states,
// each round in A2C's tiles of 16 samples (the last tile short), with the
// value gradient of a squared error against fixed returns, then a clipped
// SGD step.
func trainTiles(net *PolicyValueNet, steps int) trainRun {
	const tile = 16
	rng := rand.New(rand.NewSource(83))
	n := net.Cfg.N
	states := randStates(rng, n, steps)
	returns := make([]float64, steps)
	for i := range returns {
		returns[i] = rng.NormFloat64()
	}
	flat, dDir, _ := headGrads(net, steps, 89)
	dVal := make([]float64, steps)
	outs := make([]Output, tile)
	var run trainRun
	for round := 0; round < 3; round++ {
		mse := 0.0
		for t0 := 0; t0 < steps; t0 += tile {
			nb := min(tile, steps-t0)
			net.Forward(states[t0:t0+nb], outs[:nb], true)
			for bi := 0; bi < nb; bi++ {
				d := outs[bi].Value - returns[t0+bi]
				dVal[t0+bi] = 2 * d
				mse += d * d
			}
			net.Backward(flat[t0*4*n:(t0+nb)*4*n], dDir[t0:t0+nb], dVal[t0:t0+nb])
		}
		st := make([]float64, net.NumStats())
		net.CopyStatsInto(st)
		run.mse = append(run.mse, mse/float64(steps))
		run.grads = append(run.grads, net.GetGrads())
		run.bns = append(run.bns, st)
		SGD{LR: 0.01, Clip: 1}.Step(net)
		run.weights = append(run.weights, net.GetWeights())
	}
	return run
}

// assertRunsEqual fails on the first bit that differs between two runs.
func assertRunsEqual(t *testing.T, tag string, got, want trainRun) {
	t.Helper()
	for r := range want.mse {
		if math.Float64bits(got.mse[r]) != math.Float64bits(want.mse[r]) {
			t.Fatalf("%s round %d: MSE %v, want %v", tag, r, got.mse[r], want.mse[r])
		}
		for _, v := range []struct {
			name      string
			got, want []float64
		}{{"gradient", got.grads[r], want.grads[r]}, {"weight", got.weights[r], want.weights[r]},
			{"running statistic", got.bns[r], want.bns[r]}} {
			for i := range v.want {
				if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
					t.Fatalf("%s round %d: %s %d = %v, want %v", tag, r, v.name, i, v.got[i], v.want[i])
				}
			}
		}
	}
}

// The lane's byte-identity gate: training with each conv layer's weight
// gradients on the lane (GOMAXPROCS ≥ 2) gives the bits of the in-line
// path (GOMAXPROCS 1) — gradients, weights, BatchNorm running statistics
// and MSE — on every kernel body, over a trajectory longer than one
// 16-sample tile, on nets whose widest convs fill AVX-512's eight-row dW
// blocks.
func TestLaneTrainingByteIdentical(t *testing.T) {
	for _, body := range []string{"go", "avx2", "avx512"} {
		t.Run(body, func(t *testing.T) {
			restore, ok := tensor.SetSIMD(body)
			if !ok {
				t.Skipf("host has no %s body", body)
			}
			defer restore()
			for _, cfg := range []Config{{N: 4, BaseChannels: 2, Pools: 2}, {N: 5, BaseChannels: 4, Pools: 3}} {
				var inline, laned trainRun
				withProcs(1, func() { inline = trainTiles(NewPolicyValueNet(cfg, 79), 21) })
				withProcs(laneProcs(), func() { laned = trainTiles(NewPolicyValueNet(cfg, 79), 21) })
				assertRunsEqual(t, "N="+strconv.Itoa(cfg.N), laned, inline)
			}
		})
	}
}

// Learners on several goroutines share the one lane: each trains its own
// net at once with the others (under -race in make race), and every one
// gets the bits of the in-line path.
func TestLaneConcurrentLearners(t *testing.T) {
	cfg := Config{N: 4, BaseChannels: 2, Pools: 2}
	var want trainRun
	withProcs(1, func() { want = trainTiles(NewPolicyValueNet(cfg, 97), 19) })
	withProcs(laneProcs(), func() {
		got := make([]trainRun, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = trainTiles(NewPolicyValueNet(cfg, 97), 19)
			}()
		}
		wg.Wait()
		for i, run := range got {
			assertRunsEqual(t, "learner "+strconv.Itoa(i), run, want)
		}
	})
}

// The lane starts no goroutine per network: building, training and
// dropping many networks leaves the goroutine count where the first one
// left it. At GOMAXPROCS 1 a fresh lane starts no helper at all, and at
// GOMAXPROCS p it starts p−1.
func TestLaneLifetime(t *testing.T) {
	saved := dwLane
	defer func() { dwLane = saved }()
	dwLane = newLane()
	cfg := Config{N: 4, BaseChannels: 2, Pools: 2}
	train := func(seed int64) {
		net := NewPolicyValueNet(cfg, seed)
		states := randStates(rand.New(rand.NewSource(seed)), 4, 3)
		flat, dDir, dVal := headGrads(net, 3, seed)
		net.Forward(states, make([]Output, 3), true)
		net.Backward(flat, dDir, dVal)
	}
	withProcs(1, func() { train(1) })
	if h := dwLane.helpers.Load(); h != 0 {
		t.Fatalf("GOMAXPROCS 1 started %d lane helpers, want 0", h)
	}
	procs := laneProcs()
	withProcs(procs, func() {
		train(2)
		if h := int(dwLane.helpers.Load()); h != procs-1 {
			t.Fatalf("GOMAXPROCS %d started %d lane helpers, want %d", procs, h, procs-1)
		}
		g0 := runtime.NumGoroutine()
		for seed := int64(3); seed < 63; seed++ {
			train(seed)
		}
		if g := runtime.NumGoroutine(); g > g0 {
			t.Fatalf("60 networks took the goroutine count from %d to %d", g0, g)
		}
	})
}

// A warmed training cycle allocates nothing on the lane either. The one
// exception is a helper's own scratch, which may still grow the first
// time that helper runs a layer larger than any before; that is bounded
// by the number of conv layers, far below one allocation per cycle.
// (testing.AllocsPerRun sets GOMAXPROCS 1, which would measure the
// in-line path, so the count is read from the heap's statistics.)
func TestLaneZeroAllocWarm(t *testing.T) {
	net := NewPolicyValueNet(Config{N: 4, BaseChannels: 2, Pools: 2}, 9)
	rng := rand.New(rand.NewSource(67))
	states := randStates(rng, 4, 8)
	flat, dDir, dVal := headGrads(net, 8, 71)
	outs := make([]Output, 8)
	convs := 0
	for _, p := range net.params {
		if len(p.W.Shape) == 4 {
			convs++
		}
	}
	withProcs(laneProcs(), func() {
		cycle := func() {
			net.Forward(states, outs, true)
			net.Backward(flat, dDir, dVal)
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		const cycles = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&m1)
		// Four scratch buffers a helper may grow, once per larger layer.
		if allocs := m1.Mallocs - m0.Mallocs; allocs > uint64(4*convs) {
			t.Fatalf("%d warmed lane cycles allocated %d times, want at most %d", cycles, allocs, 4*convs)
		}
	})
}
