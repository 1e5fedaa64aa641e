package drl

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"routerless/internal/obs"
)

// apply is one SGD step whose fetched weights are discarded, for tests
// that read the server back through snapshot.
func (ps *paramServer) apply(grads []float64) {
	ps.applyAndFetch(grads, make([]float64, len(grads)))
}

// updateCount returns how many gradient pushes have been applied, as the
// drl.updates counter records them (0 without a registry).
func (ps *paramServer) updateCount() int {
	return int(ps.updateC.Value())
}

// TestParamServerClipBoundary pins the element-wise clipping behaviour at
// and around the ±clip boundary (Eqs. 19–20: gradients are clipped, then
// applied with -lr).
func TestParamServerClipBoundary(t *testing.T) {
	const lr, clip = 0.1, 1.0
	cases := []struct {
		name string
		grad float64
		want float64 // resulting weight after one update from 0
	}{
		{"inside", 0.5, -0.05},
		{"at +clip", clip, -0.1},
		{"just above +clip", clip + 1e-9, -0.1},
		{"far above +clip", 100, -0.1},
		{"at -clip", -clip, 0.1},
		{"just below -clip", -clip - 1e-9, 0.1},
		{"far below -clip", -100, 0.1},
		{"zero", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := newParamServer([]float64{0}, lr, clip, obs.NewRegistry())
			ps.apply([]float64{tc.grad})
			got := ps.snapshot()[0]
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("weight after grad %v = %v, want %v", tc.grad, got, tc.want)
			}
			if ps.updateCount() != 1 {
				t.Fatalf("updateCount = %d, want 1", ps.updateCount())
			}
		})
	}
}

// TestParamServerConcurrentSnapshotApply hammers applyAndFetch and
// snapshot from many goroutines; run with -race to verify the lock
// discipline. Every gradient element is the same constant, so every applied
// update moves all weights in lockstep: a fetched copy or snapshot holding
// one update generation is uniform, and a torn one — some elements before
// and some after a concurrent update — is not. Each fetch must also be its
// own call's post-update generation, so no two fetches see the same one.
func TestParamServerConcurrentSnapshotApply(t *testing.T) {
	const dim, workers, iters = 256, 8, 200
	ps := newParamServer(make([]float64, dim), 0.01, 1.0, obs.NewRegistry())
	grads := make([]float64, dim)
	for i := range grads {
		grads[i] = 0.5
	}
	fetched := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, dim)
			for i := 0; i < iters; i++ {
				ps.applyAndFetch(grads, dst)
				if j := firstTear(dst); j > 0 {
					t.Errorf("torn fetch: w[%d]=%v != w[0]=%v", j, dst[j], dst[0])
					return
				}
				fetched[w] = append(fetched[w], dst[0])
				snap := ps.snapshot()
				if j := firstTear(snap); j > 0 {
					t.Errorf("torn snapshot: w[%d]=%v != w[0]=%v", j, snap[j], snap[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := ps.updateCount(); got != workers*iters {
		t.Fatalf("updateCount = %d, want %d", got, workers*iters)
	}
	seen := make(map[float64]bool, workers*iters)
	for _, vs := range fetched {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("two fetches returned the same generation %v", v)
			}
			seen[v] = true
		}
	}
	// All updates subtract the identical lr*0.5 delta, so the final value is
	// the same subtraction sequence whatever the interleaving.
	ref := 0.0
	for i := 0; i < workers*iters; i++ {
		ref -= 0.01 * 0.5
	}
	for i, w := range ps.snapshot() {
		if w != ref {
			t.Fatalf("w[%d] = %v, want %v", i, w, ref)
		}
	}
}

// firstTear returns the first index whose value differs from w[0], or 0
// when w is uniform.
func firstTear(w []float64) int {
	for j := 1; j < len(w); j++ {
		if w[j] != w[0] {
			return j
		}
	}
	return 0
}

// TestParamServerFusedMatchesPair is the byte-identity oracle for the fused
// round-trip: applyAndFetch must leave the server weights and fill the
// worker buffer with exactly the bits of a plain whole-vector update
// w[i] -= lr*clip(g[i]) followed by a copy-out, and set the norm gauges to
// the plain element-order sums, over randomized gradient sequences.
func TestParamServerFusedMatchesPair(t *testing.T) {
	const dim, lr, clip = 257, 0.05, 0.8
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(42))
	want := make([]float64, dim)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	fused := newParamServer(want, lr, clip, reg)
	grads := make([]float64, dim)
	dst := make([]float64, dim)
	for step := 0; step < 50; step++ {
		for i := range grads {
			grads[i] = 2 * rng.NormFloat64()
		}
		fused.applyAndFetch(grads, dst)
		preSq, postSq := 0.0, 0.0
		for i, g := range grads {
			preSq += g * g
			g = max(-clip, min(clip, g))
			postSq += g * g
			want[i] -= lr * g
		}
		held := fused.snapshot()
		for i := range want {
			if dst[i] != want[i] || held[i] != want[i] {
				t.Fatalf("step %d: w[%d] fetched %v, held %v, want %v",
					step, i, dst[i], held[i], want[i])
			}
		}
		g := reg.Snapshot().Gauges
		if g["drl.grad_norm_preclip"] != math.Sqrt(preSq) || g["drl.grad_norm_postclip"] != math.Sqrt(postSq) {
			t.Fatalf("step %d: norm gauges %v/%v, want %v/%v", step,
				g["drl.grad_norm_preclip"], g["drl.grad_norm_postclip"], math.Sqrt(preSq), math.Sqrt(postSq))
		}
	}
}

// TestParamServerGradNormGauges verifies the pre/post-clip L2 norms and
// update counter reach the registry.
func TestParamServerGradNormGauges(t *testing.T) {
	reg := obs.NewRegistry()
	ps := newParamServer(make([]float64, 2), 0.1, 1.0, reg)
	ps.apply([]float64{3, -4}) // pre-clip norm 5; clipped to (1,-1), norm sqrt(2)
	s := reg.Snapshot()
	if got := s.Gauges["drl.grad_norm_preclip"]; math.Abs(got-5) > 1e-12 {
		t.Fatalf("preclip norm = %v, want 5", got)
	}
	if got := s.Gauges["drl.grad_norm_postclip"]; math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("postclip norm = %v, want sqrt(2)", got)
	}
	if s.Counters["drl.updates"] != 1 {
		t.Fatalf("updates = %d, want 1", s.Counters["drl.updates"])
	}
}
