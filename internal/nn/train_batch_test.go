package nn

import (
	"math/rand"
	"strconv"
	"testing"
)

// headGrads builds deterministic per-sample head gradients for the parity
// tests: distinct values per sample and logit so accumulation-order bugs
// can't cancel.
func headGrads(net *PolicyValueNet, nb int, seed int64) (flat []float64, dDir, dVal []float64) {
	rng := rand.New(rand.NewSource(seed))
	nc := net.Cfg.N
	flat = make([]float64, nb*4*nc)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	dDir = make([]float64, nb)
	dVal = make([]float64, nb)
	for i := 0; i < nb; i++ {
		dDir[i] = rng.NormFloat64()
		dVal[i] = rng.NormFloat64()
	}
	return flat, dDir, dVal
}

// runSequentialSteps drives the one-sample training loop: a training
// Forward + Backward per sample in order, with the given head gradients.
// Returns the per-sample outputs.
func runSequentialSteps(net *PolicyValueNet, states [][]float64, flat, dDir, dVal []float64) []*Output {
	row := 4 * net.Cfg.N
	outs := make([]*Output, len(states))
	for t, s := range states {
		outs[t] = forward1(net, s, true)
		net.Backward(flat[t*row:(t+1)*row], dDir[t:t+1], dVal[t:t+1])
	}
	return outs
}

func assertStatsEqual(t *testing.T, tag string, a, b *PolicyValueNet) {
	t.Helper()
	sa := make([]float64, a.NumStats())
	sb := make([]float64, b.NumStats())
	a.CopyStatsInto(sa)
	b.CopyStatsInto(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: BatchNorm running stat %d diverged: %v vs %v", tag, i, sa[i], sb[i])
		}
	}
}

func assertGradsEqual(t *testing.T, tag string, a, b *PolicyValueNet) {
	t.Helper()
	ga := a.GetGrads()
	gb := b.GetGrads()
	off := 0
	for _, p := range a.params {
		for i := 0; i < p.W.Size(); i++ {
			if ga[off+i] != gb[off+i] {
				t.Fatalf("%s: param %s grad %d diverged: %v vs %v",
					tag, p.Name, i, ga[off+i], gb[off+i])
			}
		}
		off += p.W.Size()
	}
}

// The byte-identity gate for training, forward half: one training Forward
// over B stacked states must reproduce B in-order one-sample training
// calls bit-for-bit — head outputs AND the BatchNorm running-statistics EMA
// trajectory (per-sample statistics, ascending sample order).
func TestForwardBatchTrainMatchesForwardByteIdentical(t *testing.T) {
	for _, n := range []int{4, 5} {
		t.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(t *testing.T) {
			for _, bs := range []int{1, 3, 8} {
				seq := NewPolicyValueNet(testConfig(n), 3)
				bat := NewPolicyValueNet(testConfig(n), 3)
				perturbNet(seq, 17)
				perturbNet(bat, 17)
				rng := rand.New(rand.NewSource(23 + int64(bs)))
				states := randStates(rng, n, bs)
				want := make([]*Output, bs)
				for i, s := range states {
					want[i] = forward1(seq, s, true)
				}
				outs := make([]Output, bs)
				bat.Forward(states, outs, true)
				for i := range outs {
					assertOutputsEqual(t, "B="+strconv.Itoa(bs)+" sample "+strconv.Itoa(i),
						&outs[i], want[i])
				}
				assertStatsEqual(t, "B="+strconv.Itoa(bs), bat, seq)
			}
		})
	}
}

// The byte-identity gate for training, backward half: one training
// Forward + Backward over B samples must accumulate parameter gradients
// bit-identical to the one-sample loop over the same samples in the same order —
// including across repeated batches on live (non-zeroed) gradient buffers,
// which pins the trajectory-order reduction contract.
func TestBackwardBatchByteIdenticalGradients(t *testing.T) {
	for _, n := range []int{4, 5} {
		t.Run(strconv.Itoa(n)+"x"+strconv.Itoa(n), func(t *testing.T) {
			for _, bs := range []int{1, 2, 7} {
				seq := NewPolicyValueNet(testConfig(n), 3)
				bat := NewPolicyValueNet(testConfig(n), 3)
				perturbNet(seq, 19)
				perturbNet(bat, 19)
				rng := rand.New(rand.NewSource(29 + int64(bs)))
				outs := make([]Output, bs)
				for round := 0; round < 2; round++ { // accumulate across batches
					states := randStates(rng, n, bs)
					flat, dDir, dVal := headGrads(seq, bs, 31+int64(round))
					runSequentialSteps(seq, states, flat, dDir, dVal)
					bat.Forward(states, outs, true)
					bat.Backward(flat, dDir, dVal)
					tag := "B=" + strconv.Itoa(bs) + " round " + strconv.Itoa(round)
					assertGradsEqual(t, tag, bat, seq)
					assertStatsEqual(t, tag, bat, seq)
				}
			}
		})
	}
}

// The kernel-level equivalence of the fused conv kernels to the lowered
// path is pinned by tensor's TestConvFusedMatchesLowered; the odd-size
// shapes here (B=5 on a 4×4 grid) cover the partial-group edges.
func TestTrainBatchFusedConvByteIdentical(t *testing.T) {
	seq := NewPolicyValueNet(testConfig(4), 5)
	bat := NewPolicyValueNet(testConfig(4), 5)
	perturbNet(seq, 37)
	perturbNet(bat, 37)
	rng := rand.New(rand.NewSource(41))
	states := randStates(rng, 4, 5)
	flat, dDir, dVal := headGrads(seq, len(states), 43)
	want := runSequentialSteps(seq, states, flat, dDir, dVal)
	outs := make([]Output, len(states))
	bat.Forward(states, outs, true)
	bat.Backward(flat, dDir, dVal)
	for i := range outs {
		assertOutputsEqual(t, "sample "+strconv.Itoa(i), &outs[i], want[i])
	}
	assertGradsEqual(t, "fused", bat, seq)
	assertStatsEqual(t, "fused", bat, seq)
}

// An inference Forward wedged between a training Forward and its Backward
// must not disturb the pending training caches: each layer keeps separate
// inference and training scratch. The one-sample case is the per-step
// training loop with batched inference interleaved.
func TestTrainBatchSurvivesInterleavedInference(t *testing.T) {
	for _, bs := range []int{1, 4} {
		t.Run("B"+strconv.Itoa(bs), func(t *testing.T) {
			cfg := testConfig(4)
			ref := NewPolicyValueNet(cfg, 7)
			mix := NewPolicyValueNet(cfg, 7)
			perturbNet(ref, 47)
			perturbNet(mix, 47)
			rng := rand.New(rand.NewSource(53))
			states := randStates(rng, 4, bs)
			inferStates := randStates(rng, 4, 6)
			flat, dDir, dVal := headGrads(ref, len(states), 59)
			outs := make([]Output, len(states))
			inferOuts := make([]Output, len(inferStates))
			for step := 0; step < 3; step++ {
				ref.Forward(states, outs, true)
				ref.Backward(flat, dDir, dVal)
				mix.Forward(states, outs, true)
				mix.Forward(inferStates, inferOuts, false) // wedged mid-cycle
				mix.Backward(flat, dDir, dVal)
				assertGradsEqual(t, "step "+strconv.Itoa(step), mix, ref)
				SGD{LR: 0.01}.Step(ref)
				SGD{LR: 0.01}.Step(mix)
			}
		})
	}
}

// The 0-alloc pin for the batched train step: once warmed, a full
// training Forward + Backward cycle allocates nothing, including for
// smaller batches reusing the same scratch.
func TestTrainBatchZeroAllocWarm(t *testing.T) {
	net := NewPolicyValueNet(testConfig(4), 9)
	perturbNet(net, 61)
	rng := rand.New(rand.NewSource(67))
	states := randStates(rng, 4, 8)
	flat, dDir, dVal := headGrads(net, 8, 71)
	outs := make([]Output, 8)
	net.Forward(states, outs, true) // warm
	net.Backward(flat, dDir, dVal)
	if allocs := testing.AllocsPerRun(20, func() {
		net.Forward(states, outs, true)
		net.Backward(flat, dDir, dVal)
	}); allocs != 0 {
		t.Fatalf("warmed batched train step allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		net.Forward(states[:3], outs[:3], true)
		net.Backward(flat[:3*4*net.Cfg.N], dDir[:3], dVal[:3])
	}); allocs != 0 {
		t.Fatalf("warmed batched train step (B=3) allocates %.0f times, want 0", allocs)
	}
}
