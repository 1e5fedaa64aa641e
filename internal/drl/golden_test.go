package drl

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"routerless/internal/tensor"
)

// searchDigest folds one search result into h: every valid design
// (discovery episode, loop count, hop bits, fingerprint), every value-MSE
// bit pattern, the best design and the tree size, in order.
func searchDigest(h hash.Hash64, res *Result) {
	w := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	design := func(d Design) {
		w(uint64(d.Episode))
		w(uint64(d.Loops))
		w(math.Float64bits(d.AvgHops))
		if d.Topo != nil {
			h.Write([]byte(d.Topo.Fingerprint()))
		}
		h.Write([]byte{0})
	}
	w(uint64(res.Episodes))
	for _, d := range res.Valid {
		design(d)
	}
	for _, mse := range res.ValueMSE {
		w(math.Float64bits(mse))
	}
	design(res.Best)
	w(uint64(res.TreeSize))
}

// TestSearchGolden pins same-seed single-thread search results byte for
// byte on 4×4 and 5×5 grids, across seeds, ε ∈ {0, 0.1, 1} (pure policy,
// the default mix, pure Algorithm 1) and the DNN and MCTS halves on and
// off, so a change to the search engine that alters what it visits or
// finds shows here, not only as a changed benchmark digest. It runs once
// on every kernel body the host has (tensor.SetSIMD: the Go loops, AVX2,
// AVX-512, for the DNN and for Algorithm 1's Imprv sum alike), each at
// GOMAXPROCS 1 (every conv gradient in line) and at the host's CPU count,
// at least 2 (conv weight gradients on nn's lane), and every run must
// give the one digest.
func TestSearchGolden(t *testing.T) {
	for _, body := range []string{"go", "avx2", "avx512"} {
		t.Run(body, func(t *testing.T) {
			restore, ok := tensor.SetSIMD(body)
			if !ok {
				t.Skipf("host has no %s body", body)
			}
			defer restore()
			for _, procs := range []int{1, max(2, runtime.NumCPU())} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					h := fnv.New64a()
					for _, grid := range []struct{ n, cap int }{{4, 6}, {5, 8}} {
						for seed := int64(1); seed <= 3; seed++ {
							for _, eps := range []float64{0, 0.1, 1} {
								for _, useDNN := range []bool{false, true} {
									for _, useMCTS := range []bool{false, true} {
										cfg := quickCfg(grid.n, grid.cap, 12)
										cfg.Seed, cfg.Epsilon = seed, eps
										cfg.UseDNN, cfg.UseMCTS = useDNN, useMCTS
										searchDigest(h, MustNew(cfg).Run())
									}
								}
							}
						}
					}
					if got, want := fmt.Sprintf("%016x", h.Sum64()), "31494d45541582ae"; got != want {
						t.Fatalf("digest = %s, want %s", got, want)
					}
				})
			}
		})
	}
}
