package tensor

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestConvFusedMatchesLowered pins the fused conv kernels to the lowered
// im2col/GEMM path bit-for-bit, across kernel sizes (including the even
// stem-sized kernels), channel counts that exercise both GEMM dot flavors
// and the four-lane group leftovers, and spatial sizes where w is not a
// multiple of four (the 10×10 net's 25×25 pooled planes).
func TestConvFusedMatchesLowered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sz := range []struct{ inC, outC, h, w, k int }{
		{1, 2, 16, 16, 8},  // 8×8 stem: even kernel, single input channel
		{1, 2, 15, 15, 10}, // 10×10-style stem on an odd plane
		{2, 4, 12, 12, 3},
		{4, 8, 6, 7, 3}, // non-square, w ≡ 3 (mod 4)
		{8, 16, 5, 5, 3},
		{16, 2, 5, 5, 3}, // head conv shape: outC below the 4-lane group
		{3, 3, 4, 4, 1},  // 1×1 conv
		{5, 1, 9, 9, 3},  // single output channel: all-leftover GemmTN rows
		{2, 4, 2, 33, 5}, // ickk=50 ≡ 2 (mod 4): trailing singles in GemmNN
		// dW register tile: remainder rows as zero lanes (outC ∈ {1, 2, 3,
		// 5, 6}), inC·k² not a multiple of the eight-column tile, and
		// 540 columns across two jc panels.
		{32, 1, 8, 8, 3},
		{32, 2, 8, 8, 3},
		{6, 3, 8, 8, 3},
		{6, 5, 8, 8, 3},
		{5, 6, 7, 9, 3},
		{60, 5, 8, 8, 3},
		{4, 8, 50, 50, 3}, // 10×10 net: jc = 13, leftover columns in every panel
	} {
		name := strconv.Itoa(sz.inC) + "c" + strconv.Itoa(sz.outC) + "_" +
			strconv.Itoa(sz.h) + "x" + strconv.Itoa(sz.w) + "k" + strconv.Itoa(sz.k)
		t.Run(name, func(t *testing.T) {
			h, w, k := sz.h, sz.w, sz.k
			hw := h * w
			pad := (k - 1) / 2
			ickk := sz.inC * k * k
			hp, wp := h+k-1, w+k-1
			x := make([]float64, sz.inC*hw)
			weights := make([]float64, sz.outC*ickk)
			grad := make([]float64, sz.outC*hw)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range weights {
				weights[i] = rng.NormFloat64()
			}
			for i := range grad {
				grad[i] = rng.NormFloat64()
			}

			// Lowered oracles.
			cols := make([]float64, ickk*hw)
			Im2col(x, sz.inC, h, w, k, pad, cols)
			wantOut := make([]float64, sz.outC*hw)
			GemmNN(sz.outC, hw, ickk, weights, cols, wantOut, false)
			wantDW := make([]float64, sz.outC*ickk)
			for i := range wantDW {
				wantDW[i] = rng.NormFloat64() // pre-fill: dW accumulates
			}
			gotDW := append([]float64(nil), wantDW...)
			GemmNT(sz.outC, ickk, hw, grad, cols, wantDW, true)
			dcols := make([]float64, ickk*hw)
			GemmTN(ickk, hw, sz.outC, weights, grad, dcols, false)
			wantDX := make([]float64, sz.inC*hw)
			Col2im(dcols, sz.inC, h, w, k, pad, wantDX)

			// Fused kernels on padded planes, with non-trivial strides.
			xpStride := hp*wp + 3
			xp := make([]float64, sz.inC*xpStride)
			for i := range xp {
				xp[i] = 1e30 // poison the stride gaps
			}
			for ic := 0; ic < sz.inC; ic++ {
				PadPlane(x[ic*hw:(ic+1)*hw], h, w, k, xp[ic*xpStride:ic*xpStride+hp*wp])
			}
			oStride := hw + 5
			gotOut := make([]float64, sz.outC*oStride)
			gs := make([]float64, sz.outC*oStride)
			for oc := 0; oc < sz.outC; oc++ {
				copy(gs[oc*oStride:oc*oStride+hw], grad[oc*hw:(oc+1)*hw])
			}
			nf, ni := ConvWork(sz.outC, sz.inC, h, w, k)
			work, offs := make([]float64, nf), make([]int, ni)
			for i := range work {
				work[i] = 1e30 // scratch must be clobbered, not trusted
			}
			ConvFwdPad(weights, sz.outC, sz.inC, 1, xp, xpStride, h, w, k, gotOut, oStride, work, offs)
			gpadStride := hp*wp + 2
			gpad := make([]float64, sz.outC*gpadStride)
			for i := range gpad {
				gpad[i] = 1e30 // PadGradPlane must overwrite rows AND borders
			}
			for oc := 0; oc < sz.outC; oc++ {
				PadGradPlane(gs[oc*oStride:], h, w, k, gpad[oc*gpadStride:])
			}
			for i := range work {
				work[i] = 1e30
			}
			ConvDWPad(gpad, gpadStride, xp, xpStride, sz.outC, sz.inC, 1, h, w, k, gotDW, work, offs)
			dxStride := hw + 7
			gotDX := make([]float64, sz.inC*dxStride)
			for i := range gotDX {
				gotDX[i] = 1e30 // ConvDXPad must overwrite its planes
			}
			for i := range work {
				work[i] = 1e30
			}
			ConvDXPad(weights, sz.outC, sz.inC, 1, gpad, gpadStride, h, w, k, gotDX, dxStride, work, offs)

			for oc := 0; oc < sz.outC; oc++ {
				for i := 0; i < hw; i++ {
					if gotOut[oc*oStride+i] != wantOut[oc*hw+i] {
						t.Fatalf("forward oc=%d i=%d: got %v want %v", oc, i, gotOut[oc*oStride+i], wantOut[oc*hw+i])
					}
				}
			}
			for i := range wantDW {
				if gotDW[i] != wantDW[i] {
					t.Fatalf("dW elem %d: got %v want %v", i, gotDW[i], wantDW[i])
				}
			}
			for ic := 0; ic < sz.inC; ic++ {
				for i := 0; i < hw; i++ {
					if gotDX[ic*dxStride+i] != wantDX[ic*hw+i] {
						t.Fatalf("dX ic=%d i=%d: got %v want %v", ic, i, gotDX[ic*dxStride+i], wantDX[ic*hw+i])
					}
				}
			}
		})
	}
}

// benchConvFused runs one fused kernel on every conv layer of the default
// 8×8 and 10×10 search nets (the 10×10 planes — 50, 25 and 12 wide — end
// in 4- and 1-wide AVX2 row tails and shifted AVX-512 chunks), once per
// body: the avx512 and avx2 rows (each skipped on hosts without it) and
// the portable go rows. Each shape runs at one sample, the per-step
// inference call, and as a "_nb4" row at four, a training call's batch
// (the search's training calls carry 2–5 samples), where the per-call
// weight packing and offset tables are spread over the samples. Each row
// reports its throughput in GMAC/s; every kernel does outC·inC·k²·h·w MACs
// per sample.
func benchConvFused(b *testing.B, kernel func(o *convOperands)) {
	rng := rand.New(rand.NewSource(53))
	for _, s := range append(append([]convShape(nil), defaultNetShapes[8]...), defaultNetShapes[10]...) {
		for _, nb := range []int{1, 4} {
			o := newConvOperands(rng, s, nb)
			o.out = make([]float64, max(s.outC, s.inC)*nb*s.h*s.w)
			o.dw = make([]float64, s.outC*s.inC*s.k*s.k)
			macs := float64(nb * s.outC * s.inC * s.k * s.k * s.h * s.w)
			name := s.String()
			if nb > 1 {
				name += "_nb" + strconv.Itoa(nb)
			}
			for _, l := range []simdLevel{levelAVX512, levelAVX2, levelGo} {
				b.Run(name+"/"+l.String(), func(b *testing.B) {
					b.ReportAllocs()
					onLevel(b, l, func() {
						for i := 0; i < b.N; i++ {
							kernel(o)
						}
					})
					b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
				})
			}
		}
	}
}

func BenchmarkConvFusedFwd(b *testing.B) {
	benchConvFused(b, func(o *convOperands) { o.fwd(o.out) })
}

func BenchmarkConvFusedDW(b *testing.B) {
	benchConvFused(b, func(o *convOperands) {
		o.dW(o.dw)
	})
}

func BenchmarkConvFusedDX(b *testing.B) {
	benchConvFused(b, func(o *convOperands) { o.dx(o.out) })
}
