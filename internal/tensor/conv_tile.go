package tensor

// Register-tiled AVX2 paths of the fused conv kernels. For ConvFwdPad and
// ConvDXPad the assembly row kernel convRowAVX2 holds a tile of up to
// eight consecutive output positions of one output row in YMM registers,
// one channel of a block of four per lane (output channels forward, input
// channels for dX), for the whole reduction: per group of terms it loads
// the block's packed weight vectors once and broadcasts each input value
// to the four lanes. Rows run in tiles of 8, then 4, then 1 positions, so
// the gap elements of the padded layout are never computed.
//
// Only the loop order across independent outputs differs from the Go
// bodies of conv_fused.go. Every element keeps its chain: the forward's
// +0-started accumulator takes GemmNN's aligned four-term groups in
// ascending reduction order — gemmKC panels are multiples of four, so the
// only singles are the last ickk%4 terms — and dX's takes one grouped-outC
// value per (ky, kx), straight for outC ≤ 4 and from a +0-started sub-sum
// otherwise. So the tiled paths are bit-identical to the Go bodies, which the
// parity tests in simd_test.go check.
//
// Weights are packed once per call as [block][term][lane], zero in the
// lanes past outC (or inC). The output row of such a lane aliases lane 0's,
// which the kernel stores last, so what the lane computes is overwritten.
//
// ConvDWPad's AVX2 path is the tile dwTileAVX2 (simd_amd64.s), which
// reduces over positions instead: its lanes are the four output channels
// of a block, read from the row-interleaved copy of their zero-gapped
// gradient spans, and it holds eight columns' accumulators — eight
// independent add chains — in YMM registers for the whole span, each
// column's input found through the colOffsets table. It walks the span
// row by row and steps over the k-1 gap terms between rows, whose ±0
// products the Go body's dot4x4 adds as no-ops (fact 3 of conv_fused.go),
// so every element keeps GemmNT's strictly sequential +0-started chain;
// the tile then transposes the accumulators into rows and adds each to its
// gradient element, as the Go body adds each dot4x4 sum. The outC%4 head
// rows (the 32→2 and 32→1 convs) run as the first lanes of a block whose
// rows past outC are zero in the interleaved copy, accumulating in a
// four-row copy of their gradient rows that is copied back after the last
// sample; what the zero lanes compute is discarded, as with the aliased
// lanes above.

// convFwdTiled is ConvFwdPad's AVX2 body; offs holds the ickk reduction
// offsets and work at least (outC+3)/4·4·ickk floats.
func convFwdTiled(weights []float64, outC, ickk, nb int, xp []float64, xpStride, h, w, k int, out []float64, outStride int, work []float64, offs []int) {
	wp := w + k - 1
	nblk := (outC + 3) / 4
	wpk := work[:nblk*4*ickk]
	for b := 0; b < nblk; b++ {
		pk := wpk[b*4*ickk : (b+1)*4*ickk]
		for l := 0; l < 4; l++ {
			oc := 4*b + l
			if oc >= outC {
				for r := 0; r < ickk; r++ {
					pk[4*r+l] = 0
				}
				continue
			}
			for r, v := range weights[oc*ickk : (oc+1)*ickk] {
				pk[4*r+l] = v
			}
		}
	}
	for bi := 0; bi < nb; bi++ {
		for b := 0; b < nblk; b++ {
			tileBlock(xp[bi*xpStride:], offs, wpk[b*4*ickk:(b+1)*4*ickk], out, 4*b, outC, nb, bi, outStride,
				h, w, wp, ickk/4, 1, ickk%4, 0)
		}
	}
}

// tileBlock runs convRowAVX2 over the h output rows of one sample for the
// channel block starting at c0: row oy reads its inputs from x[oy*wp:],
// and lane l writes plane (c0+l, bi) of dst (channel-major, plane stride
// stride), or lane 0's plane when c0+l ≥ nch. n4, m, nm and reps are the
// kernel's reduction program.
func tileBlock(x []float64, offs []int, pk, dst []float64, c0, nch, nb, bi, stride, h, w, wp, n4, m, nm, reps int) {
	hw := h * w
	var planes [4][]float64
	for l := range planes {
		c := c0 + l
		if c >= nch {
			c = c0
		}
		planes[l] = dst[(c*nb+bi)*stride:][:hw]
	}
	for oy := 0; oy < h; oy++ {
		o := oy * w
		convRowAVX2(x[oy*wp:], offs, pk, planes[0][o:o+w], planes[1][o:o+w],
			planes[2][o:o+w], planes[3][o:o+w], w, n4, m, nm, reps)
	}
}

// packDX packs ConvDXPad's weights for the tiled body into work:
// block b, term rr·outC+l, lane j holds weights[l][4b+j][rr], the weight
// dcols row (4b+j, rr) gives output channel l.
func packDX(weights []float64, outC, inC, kk2 int, work []float64) []float64 {
	ickk := inC * kk2
	terms := kk2 * outC
	nblk := (inC + 3) / 4
	wpk := work[:nblk*4*terms]
	for b := 0; b < nblk; b++ {
		pk := wpk[b*4*terms : (b+1)*4*terms]
		for j := 0; j < 4; j++ {
			ic := 4*b + j
			for rr := 0; rr < kk2; rr++ {
				for l := 0; l < outC; l++ {
					v := 0.0
					if ic < inC {
						v = weights[l*ickk+ic*kk2+rr]
					}
					pk[4*(rr*outC+l)+j] = v
				}
			}
		}
	}
	return wpk
}

// convDXTiled is ConvDXPad's AVX2 body for sample bi, whose padded
// gradient planes gs starts at; wpk comes from packDX and offs holds the
// k²·outC term offsets.
func convDXTiled(wpk []float64, outC, inC, nb, bi int, gs []float64, h, w, k int, dx []float64, dxStride int, offs []int) {
	kk2 := k * k
	terms := kk2 * outC
	// Per (ky, kx): one group of outC terms straight into the accumulator
	// for outC ≤ 4, else a sub-sum of outC/4 groups and outC%4 singles.
	n4, m, nm, reps := 0, outC, kk2, 0
	switch {
	case outC == 4:
		n4, m, nm = kk2, 1, 0
	case outC > 4:
		n4, m, nm, reps = outC/4, 1, outC%4, kk2
	}
	for b := 0; b < (inC+3)/4; b++ {
		tileBlock(gs, offs, wpk[b*4*terms:(b+1)*4*terms], dx, 4*b, inC, nb, bi, dxStride,
			h, w, w+k-1, n4, m, nm, reps)
	}
}
