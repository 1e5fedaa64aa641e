package nn

import (
	"math/rand"
	"strconv"
	"testing"
)

// perturbNet gives weights and BatchNorm running statistics nontrivial
// values so the parity checks exercise real affine transforms, not the
// mean-0/var-1 initialization.
func perturbNet(net *PolicyValueNet, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := net.GetWeights()
	for i := range w {
		w[i] += 0.05 * rng.NormFloat64()
	}
	net.SetWeights(w)
	st := make([]float64, net.NumStats())
	net.CopyStatsInto(st)
	for _, bn := range net.bns {
		for c := range bn.RunMean {
			bn.RunMean[c] = 0.3 * rng.NormFloat64()
			bn.RunVar[c] = 0.5 + rng.Float64()
		}
	}
	if len(st) == 0 {
		panic("test net has no BatchNorm stats")
	}
}

func randStates(rng *rand.Rand, n, count int) [][]float64 {
	states := make([][]float64, count)
	for i := range states {
		s := make([]float64, n*n*n*n)
		for j := range s {
			s[j] = float64(rng.Intn(5 * n)) // hop-matrix-like magnitudes
		}
		states[i] = s
	}
	return states
}

func assertOutputsEqual(t *testing.T, tag string, got, want *Output) {
	t.Helper()
	for g := 0; g < 4; g++ {
		for i := range want.CoordLogits[g] {
			if got.CoordLogits[g][i] != want.CoordLogits[g][i] {
				t.Fatalf("%s: coord logit group %d idx %d: got %v want %v",
					tag, g, i, got.CoordLogits[g][i], want.CoordLogits[g][i])
			}
			if got.CoordProbs[g][i] != want.CoordProbs[g][i] {
				t.Fatalf("%s: coord prob group %d idx %d: got %v want %v",
					tag, g, i, got.CoordProbs[g][i], want.CoordProbs[g][i])
			}
		}
	}
	if got.DirPre != want.DirPre || got.Dir != want.Dir {
		t.Fatalf("%s: dir got (%v,%v) want (%v,%v)", tag, got.DirPre, got.Dir, want.DirPre, want.Dir)
	}
	if got.Value != want.Value {
		t.Fatalf("%s: value got %v want %v", tag, got.Value, want.Value)
	}
}

// The byte-identity gate for inference: one Forward over B stacked states
// must reproduce B independent one-sample Forward calls bit-for-bit — policy logits and
// softmax groups, pre-tanh direction, and value — across batch sizes,
// including B=1. The narrow testConfig nets keep every conv reduction
// under one gemmKC = 128 panel; the nets the broker benchmark runs
// ({8,10}×{8,10}, BaseChannels 4, Pools 3) reach 16-channel 3×3 layers,
// whose 144-term reductions cross it.
func TestForwardBatchMatchesForwardByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		batches []int
	}{
		{"4x4", testConfig(4), []int{1, 3, 8}},
		{"5x5", testConfig(5), []int{1, 3, 8}},
		{"8x8-broker", Config{N: 8, BaseChannels: 4, Pools: 3}, []int{1, 8}},
		{"10x10-broker", Config{N: 10, BaseChannels: 4, Pools: 3}, []int{1, 8}},
	} {
		n := tc.cfg.N
		t.Run(tc.name, func(t *testing.T) {
			net := NewPolicyValueNet(tc.cfg, 3)
			perturbNet(net, 17)
			rng := rand.New(rand.NewSource(23))
			for _, bs := range tc.batches {
				states := randStates(rng, n, bs)
				want := make([]*Output, bs)
				for i, s := range states {
					want[i] = forward1(net, s, false)
				}
				outs := make([]Output, bs)
				net.Forward(states, outs, false)
				for i := range outs {
					assertOutputsEqual(t, "B="+strconv.Itoa(bs)+" sample "+strconv.Itoa(i),
						&outs[i], want[i])
				}
			}
		})
	}
}

// The 0-alloc pin: a warmed-up inference forward allocates nothing.
func TestForwardBatchZeroAllocWarm(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 9)
	perturbNet(net, 41)
	rng := rand.New(rand.NewSource(43))
	states := randStates(rng, 4, 8)
	outs := make([]Output, 8)
	net.WarmBatch(8)
	net.Forward(states, outs, false) // populate the output slices too
	if allocs := testing.AllocsPerRun(50, func() {
		net.Forward(states, outs, false)
	}); allocs != 0 {
		t.Fatalf("warmed inference Forward allocates %.0f times per batch, want 0", allocs)
	}
	// Smaller batches reuse the same warmed scratch.
	if allocs := testing.AllocsPerRun(50, func() {
		net.Forward(states[:3], outs[:3], false)
	}); allocs != 0 {
		t.Fatalf("warmed inference Forward(B=3) allocates %.0f times per batch, want 0", allocs)
	}
}

// Running-statistics round trip: the flat vector restores eval-mode
// behavior exactly on a fresh net.
func TestStatsRoundTripReproducesEval(t *testing.T) {
	cfg := testConfig(4)
	src := NewPolicyValueNet(cfg, 11)
	perturbNet(src, 47)
	dst := NewPolicyValueNet(cfg, 999) // different init everywhere
	dst.SetWeights(src.GetWeights())
	st := make([]float64, src.NumStats())
	src.CopyStatsInto(st)
	dst.SetStats(st)
	rng := rand.New(rand.NewSource(53))
	for _, s := range randStates(rng, 4, 3) {
		want := forward1(src, s, false)
		got := forward1(dst, s, false)
		assertOutputsEqual(t, "stats round trip", got, want)
	}
}
