package tensor

// Register-tiled paths of the fused conv kernels. ConvFwdPad and ConvDXPad
// run an assembly kernel that holds a tile of outputs in registers for the
// whole reduction; the two assembly levels map lanes differently.
//
// AVX2 (convRowAVX2): a YMM lane is one channel of a block of four (output
// channels forward, input channels for dX), and Y0..Y7 hold up to eight
// consecutive output positions of one output row. Per group of terms it
// loads the block's packed weight vectors once and broadcasts each input
// value to the four lanes. Rows run in tiles of 8, then 4, then 1
// positions, so the gap elements of the padded layout are never computed.
// Weights are packed once per call as [block][term][lane], zero in the
// lanes past outC (or inC). The output row of such a lane aliases lane
// 0's, which the kernel stores last, so what the lane computes is
// overwritten; a layer with one channel in the lane dimension keeps the Go
// body, which fills all four lanes.
//
// AVX-512 (convPlaneAVX512): a ZMM lane is an output position. Eight
// consecutive positions of one row of one channel fill a register (a
// chunk), and a tile holds two chunks of up to four channels, so any
// channel count fills the lanes of every chunk it computes and a block of
// fewer than four channels computes only those. A row whose width is not a
// multiple of eight ends in a chunk shifted back to end at the row's end,
// recomputing positions of the chunk before it with the same bits. Chunks
// pair in row-major order, so on eight-wide planes a tile spans two rows.
// Each channel's weight is an embedded broadcast from that channel's
// weight row: the forward reads the weights as they are, and dX reads them
// packed once per call as [input channel][term]. Planes narrower than a
// chunk take the AVX2 row kernel.
//
// Only the loop order across independent outputs differs from the Go
// bodies of conv_fused.go. Every element keeps its chain: the forward's
// +0-started accumulator takes GemmNN's aligned four-term groups in
// ascending reduction order — gemmKC panels are multiples of four, so the
// only singles are the last ickk%4 terms — and dX's takes one grouped-outC
// value per (ky, kx), straight for outC ≤ 4 and from a +0-started sub-sum
// otherwise. So the tiled paths are bit-identical to the Go bodies, which
// the parity tests in simd_test.go check.
//
// ConvDWPad reduces over positions instead, so its tiles turn the other
// way: a lane is one output channel of a block, read from the
// row-interleaved copy of the block's zero-gapped gradient spans, and the
// tile holds eight columns' accumulators — eight independent add chains —
// for the whole span, each column's input found through the colOffsets
// table. dwTileAVX2 takes blocks of four rows, dwTileAVX512 blocks of
// eight (every full eight-row block of an AVX-512 host; the rows after
// them take dwTileAVX2). Both walk the span row by row and step over the
// k-1 gap terms between rows, as the Go body's dot4x4 does, so every
// element keeps GemmNT's strictly sequential +0-started chain; the tile
// then transposes the accumulators into rows and adds each to its
// gradient element, as the Go body adds each dot4x4 sum. The outC%4 head
// rows (the 32→2 and 32→1 convs) run as the first lanes of a four-row
// block whose rows past outC are zero in the interleaved copy,
// accumulating in a four-row copy of their gradient rows that is copied
// back after the last sample; what the zero lanes compute is discarded.

// planeTiles reports whether conv planes w wide run the AVX-512 plane
// kernel, whose chunks need w ≥ 8.
func planeTiles(w int) bool { return level == levelAVX512 && w >= 8 }

// convFwdTiled is ConvFwdPad's register-tiled body; offs holds the ickk
// reduction offsets and, for AVX2, work at least (outC+3)/4·4·ickk floats.
func convFwdTiled(weights []float64, outC, ickk, nb int, xp []float64, xpStride, h, w, k int, out []float64, outStride int, work []float64, offs []int) {
	wp := w + k - 1
	if planeTiles(w) {
		for bi := 0; bi < nb; bi++ {
			for c0 := 0; c0 < outC; c0 += 4 {
				convPlaneAVX512(xp[bi*xpStride:], offs, weights[c0*ickk:], out[(c0*nb+bi)*outStride:],
					ickk, nb*outStride, min(4, outC-c0), h, w, wp, ickk/4, 1, ickk%4, 0)
			}
		}
		return
	}
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

// packDX packs ConvDXPad's weights for the tiled body of w-wide planes
// into work. Term rr·outC+l of input channel ic weighs weights[l][ic][rr],
// the weight dcols row (ic, rr) gives output channel l. The AVX-512 plane
// kernel reads the terms as [ic][term]; the AVX2 row kernel as
// [block][term][lane], lane j of block b holding input channel 4b+j, zero
// past inC.
func packDX(weights []float64, outC, inC, kk2, w int, work []float64) []float64 {
	ickk := inC * kk2
	terms := kk2 * outC
	if planeTiles(w) {
		wpk := work[:inC*terms]
		for l := 0; l < outC; l++ {
			for ic := 0; ic < inC; ic++ {
				pk := wpk[ic*terms+l:]
				for rr, v := range weights[l*ickk+ic*kk2 : l*ickk+(ic+1)*kk2] {
					pk[rr*outC] = v
				}
			}
		}
		return wpk
	}
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

// convDXTiled is ConvDXPad's register-tiled body for sample bi, whose
// padded gradient planes gs starts at; wpk comes from packDX and offs
// holds the k²·outC term offsets.
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
	if planeTiles(w) {
		for c0 := 0; c0 < inC; c0 += 4 {
			convPlaneAVX512(gs, offs, wpk[c0*terms:], dx[(c0*nb+bi)*dxStride:],
				terms, nb*dxStride, min(4, inC-c0), h, w, w+k-1, n4, m, nm, reps)
		}
		return
	}
	for b := 0; b < (inC+3)/4; b++ {
		tileBlock(gs, offs, wpk[b*4*terms:(b+1)*4*terms], dx, 4*b, inC, nb, bi, dxStride,
			h, w, w+k-1, n4, m, nm, reps)
	}
}
