package rl

import (
	"math/rand"
	"slices"
	"testing"

	"routerless/internal/tensor"
	"routerless/internal/topo"
)

// TestImprvAVX512MatchesGo holds the AVX-512 Imprv body to the portable
// imprvGo, sum for sum: on every rectangle of the 4×4…10×10 and 18×18
// grids (perimeters 4…68) at several fill levels that leave pairs
// unconnected, node 0's rows included; then on rings of every length
// 2…70, so every (L−1) mod 16 tail, over a random dist matrix whose
// diagonal is nonzero, so a lane past k = L−1 shows too.
func TestImprvAVX512MatchesGo(t *testing.T) {
	if tensor.SIMD() != "avx512" {
		t.Skip("host has no AVX-512F")
	}
	check := func(what string, dist []int16, ring []int32, n, sentinel int) {
		t.Helper()
		wcw, wccw := imprvGo(dist, ring[:len(ring)/2], n, sentinel)
		gcw, gccw := imprvAVX512(dist, ring, n, sentinel)
		if gcw != wcw || gccw != wccw {
			t.Fatalf("%s, L=%d: avx512 (%d,%d), go (%d,%d)", what, len(ring)/2, gcw, gccw, wcw, wccw)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 5, 6, 7, 8, 9, 10, 18} {
		e := NewEnv(n, 2*(n-1))
		for _, fill := range []int{0, 2, 4, 10} { // cumulative random steps
			seedRandomDesign(e, rng, fill)
			sentinel := int(topo.UnconnectedHops(n, n))
			for _, r := range e.topo.Tables().Rects() {
				check("grid", e.topo.DistData(), r.Ring, n*n, sentinel)
			}
		}
	}

	const side = 18
	nodes := side * side
	sentinel := int(topo.UnconnectedHops(side, side))
	dist := make([]int16, nodes*nodes)
	for i := range dist {
		dist[i] = int16(rng.Intn(sentinel+1) - 1)
	}
	for ll := 2; ll <= 70; ll++ {
		for trial := 0; trial < 8; trial++ {
			perm := rng.Perm(nodes)[:ll]
			if trial == 0 && !slices.Contains(perm, 0) {
				perm[rng.Intn(ll)] = 0 // node 0's row and column
			}
			ring := make([]int32, 2*ll)
			for i, v := range perm {
				ring[i], ring[i+ll] = int32(v), int32(v)
			}
			check("random ring", dist, ring, nodes, sentinel)
		}
	}
}
