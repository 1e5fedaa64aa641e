package tensor

import "fmt"

// Fused (materialization-free) convolution kernels: ConvFwdPad runs every
// conv forward in internal/nn, ConvDWPad/ConvDXPad every conv backward.
// The im2col formulation moves K²× the input volume through
// cols/dcols buffers that are megabytes per sample at paper scale; these
// kernels read a zero-padded copy of the input plane instead, so every value the GEMM would
// have loaded from a cols row is loaded from the padded plane at a computed
// offset — the same value, in the same place in the same per-element
// reduction chain. That makes each kernel bit-identical to its lowered
// counterpart:
//
//	ConvFwdPad  ≡ Im2col + GemmNN      (conv forward)
//	ConvDWPad   ≡ GemmNT over cols     (conv weight gradient)
//	ConvDXPad   ≡ GemmTN + Col2im      (conv input gradient)
//
// The equivalences are pinned by TestConvFusedMatchesLowered, which runs the
// lowered kernels (kept in this package's tests) as oracles. Four structural facts carry the proofs:
//
//  1. Pad zeros participate. The padded plane holds explicit +0 entries
//     where im2col writes zeros, so grouped expressions such as
//     a0·b0+a1·b1+a2·b2+a3·b3 see exactly the operands the GEMM saw —
//     nothing is skipped, no sign-of-zero or grouping difference can arise.
//
//  2. Only loop nests are reordered, never per-element chains. A C element's
//     accumulation order in the lowered kernels depends only on the
//     reduction index (GemmNN: aligned 4-term groups within gemmKC panels;
//     GemmNT: position of the output column within its jc panel selects the
//     sequential or the four-lane dot; GemmTN: aligned 4-lane groups over
//     the reduction dim), all of which these kernels reproduce exactly.
//     ConvDXPad accumulates one gapped plane per input channel, as
//     ConvFwdPad does per output channel; per element that changes nothing.
//
//  3. Zero terms may be inserted into a chain. ConvDXPad gathers from
//     positions Col2im would have clipped, which read pad zeros, and adds
//     av·b = ±0 to a running accumulator — and an accumulator that starts
//     at +0 can never hold -0 under round-to-nearest (x+(-x) = +0; -0 only
//     arises from (-0)+(-0)), so s + (±0) returns s bit-for-bit. ConvDWPad
//     walks the gradient plane as one (h-1)·wp+w span (a view into the
//     padded plane) but steps over its k-1 inter-row gap elements on every
//     body, so its chains hold exactly GemmNT's terms.
//
//  4. A dcols value's sign of zero never reaches dX (the accumulating dX
//     element is never -0, and t+(+0) == t+(-0) for such t), which licenses
//     evaluating the grouped-outC expression straight into dX for outC ≤ 4
//     instead of adding it to a cleared dcols element first.
//
// The zero-term argument assumes finite inputs: a pad term is av·b with one
// operand exactly ±0, which is ±0 only when the other operand is finite
// (0·Inf = NaN). Training data, weights, and gradients are finite by
// invariant — the lowered path produces garbage on non-finite values anyway.
//
// Every kernel finds its operands through offset tables built once per
// call (colOffsets for the input planes, a term table for ConvDXPad's
// gradient planes) instead of dividing each reduction index by k² and k.
//
// With AVX2, ConvFwdPad and ConvDXPad run the register-tiled row kernel
// of conv_tile.go, ConvDWPad the register tile dwTileAVX2 described there,
// and the other long inner loops the SIMD primitives of simd.go; with
// AVX-512 the first two run conv_tile.go's position-major plane kernel and
// ConvDWPad's eight-row blocks the tile dwTileAVX512. All of them
// vectorize across independent output elements only, so none of the above
// depends on which body runs.
//
// All kernels require h·w > 1: at h·w == 1 the lowered path would take the
// GEMM matrix–vector fast paths, whose accumulator patterns differ. The
// networks in internal/nn never pool below 2×2.

// PadPlane copies an (h, w) plane into an (h+k-1, w+k-1) plane with a zero
// border sized for a stride-1 "same" convolution with a k×k kernel and
// pad = (k-1)/2: source pixel (y, x) lands at (y+pad, x+pad). dst is fully
// overwritten. The border is (k-1)/2 on the leading sides and k-1-(k-1)/2 on
// the trailing sides, covering even k exactly as Im2col's bounds do.
func PadPlane(src []float64, h, w, k int, dst []float64) {
	padPlane(src, h, w, k, (k-1)/2, dst)
}

// PadGradPlane is PadPlane for an output-gradient plane, which ConvDWPad
// and ConvDXPad both read: the leading border is the larger one, lead =
// gradLead(k), so source pixel (y, x) lands at (y+lead, x+lead). That
// orients the plane for the gather formulation of col2im (ConvDXPad),
// while its interior rows, viewed from offset lead·wp+lead at stride
// wp = w+k-1, double as the zero-gapped span ConvDWPad's long dots walk.
func PadGradPlane(src []float64, h, w, k int, dst []float64) {
	padPlane(src, h, w, k, gradLead(k), dst)
}

// gradLead is the leading border of a PadGradPlane plane.
func gradLead(k int) int { return k - 1 - (k-1)/2 }

// padPlane copies src into dst with a leading border of lead zeros.
func padPlane(src []float64, h, w, k, lead int, dst []float64) {
	hp, wp := h+k-1, w+k-1
	if len(src) < h*w || len(dst) < hp*wp {
		panic(fmt.Sprintf("tensor: padPlane buffers (%d,%d), need (%d,%d)", len(src), len(dst), h*w, hp*wp))
	}
	// One clear of the plane, then one copy per row: on the small planes
	// of the deep layers, per-row clears of the borders cost more calls
	// than bytes. Writing each element once instead (clearing only the
	// lead rows, the k-1 gaps between rows and the tail, by clear or by a
	// store loop) measured up to 1.8× slower on every plane from 2×2 to
	// 32×32 with k = 3 on a 2-vCPU AVX-512 Xeon, and broke even only near
	// 64×64, far above the 18×18 planes the largest nets pad.
	clear(dst[:hp*wp])
	for y := 0; y < h; y++ {
		copy(dst[(y+lead)*wp+lead:][:w], src[y*w:(y+1)*w])
	}
}

// ConvWork returns the lengths of the float64 and int scratch that
// ConvFwdPad, ConvDWPad and ConvDXPad need for a layer of this shape; one
// pair of buffers of these lengths serves all three kernels.
func ConvWork(outC, inC, h, w, k int) (floats, ints int) {
	kk2 := k * k
	span := (h-1)*(w+k-1) + w
	// ConvDWPad: the row-interleaved gradient spans of (outC+3)/4 blocks,
	// a gradient row, a cols row, a four-row gradient block and a zero
	// span. It also covers the one or two gapped rows of ConvFwdPad's and
	// ConvDXPad's Go bodies.
	dw := (outC+3)&^3*span + 2*h*w + 4*inC*kk2 + span
	floats = max(dw, (outC+3)/4*4*inC*kk2, (inC+3)/4*4*kk2*outC)
	return floats, max(inC, outC) * kk2
}

// colOffsets fills offs[:inC·k²] with the table both ConvFwdPad and
// ConvDWPad index the padded input planes by: offs[r] is the offset of
// reduction index (cols row) r = (ic, ky, kx) at output pixel (0, 0) of a
// sample, ic·icStride + ky·wp + kx, and gapped position t = oy·wp + ox
// adds t. Built once per kernel call, it replaces a division per index.
func colOffsets(offs []int, inC, k, wp, icStride int) []int {
	kk2 := k * k
	offs = offs[:inC*kk2]
	r := 0
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			offs[r] = ky*wp + kx
			r++
		}
	}
	// Each further input channel repeats the first channel's taps one
	// plane stride on.
	for r := kk2; r < len(offs); r++ {
		offs[r] = offs[r-kk2] + icStride
	}
	return offs
}

// ConvFwdPad computes the stride-1 "same" convolution out = W∗x for nb
// samples directly from padded input planes, bit-identical per sample to
// GemmNN(outC, h·w, inC·k², weights, im2col(x), out, false): per output
// element, reduction indices are consumed in aligned four-term grouped
// expressions within gemmKC panels, exactly as GemmNN's inner loops emit
// them. No bias is applied.
//
// Planes are channel-major: xp holds inC·nb padded planes of
// (h+k-1)×(w+k-1), plane (ic, bi) starting at xp[(ic*nb+bi)*xpStride], and
// out receives outC·nb planes of h·w, plane (oc, bi) at
// out[(oc*nb+bi)*outStride], overwritten. work and offs are scratch sized
// by ConvWork, clobbered.
//
// With AVX-512 (on planes at least eight wide) or with AVX2 and outC > 1
// the register-tiled kernel of conv_tile.go runs. Otherwise each output
// channel accumulates into a gapped row of work
// ((h-1)·(w+k-1)+w long) in single long axpy4 sweeps, whose gap elements
// collect garbage cross-products that the final interior copy discards.
// For one output channel those sweeps fill all four SIMD lanes, where the
// tiled kernel would fill one.
func ConvFwdPad(weights []float64, outC, inC, nb int, xp []float64, xpStride, h, w, k int, out []float64, outStride int, work []float64, offs []int) {
	hw := h * w
	if hw <= 1 {
		panic("tensor: ConvFwdPad requires h*w > 1")
	}
	ickk := inC * k * k
	wp := w + k - 1
	nf, ni := ConvWork(outC, inC, h, w, k)
	if nb < 1 || len(weights) < outC*ickk || len(xp) < (inC*nb-1)*xpStride+(h+k-1)*wp ||
		len(out) < (outC*nb-1)*outStride+hw || len(work) < nf || len(offs) < ni {
		panic("tensor: ConvFwdPad buffer lengths too short")
	}
	offs = colOffsets(offs, inC, k, wp, nb*xpStride)
	if planeTiles(w) || level >= levelAVX2 && outC > 1 {
		convFwdTiled(weights, outC, ickk, nb, xp, xpStride, h, w, k, out, outStride, work, offs)
		return
	}
	span := (h-1)*wp + w
	pp := work[:span]
	for bi := 0; bi < nb; bi++ {
		xs := xp[bi*xpStride:]
		for oc := 0; oc < outC; oc++ {
			wrow := weights[oc*ickk : (oc+1)*ickk]
			clear(pp)
			for k0 := 0; k0 < ickk; k0 += gemmKC {
				k1 := min(k0+gemmKC, ickk)
				kk := k0
				for ; kk+3 < k1; kk += 4 {
					a0, a1, a2, a3 := wrow[kk], wrow[kk+1], wrow[kk+2], wrow[kk+3]
					axpy4(pp, a0, a1, a2, a3, xs[offs[kk]:], xs[offs[kk+1]:], xs[offs[kk+2]:], xs[offs[kk+3]:])
				}
				for ; kk < k1; kk++ {
					av := wrow[kk]
					prow := xs[offs[kk]:][:span]
					for t := range pp {
						pp[t] += av * prow[t]
					}
				}
			}
			orow := out[(oc*nb+bi)*outStride:][:hw]
			for oy := 0; oy < h; oy++ {
				copy(orow[oy*w:(oy+1)*w], pp[oy*wp:oy*wp+w])
			}
		}
	}
}

// ConvDWPad accumulates the convolution weight gradient of nb samples,
// dW += dY·im2col(x)ᵀ one sample at a time in ascending sample order, each
// sample's update bit-identical to GemmNT(outC, inC·k², h·w, grad,
// im2col(x), wGrad, true). GemmNT evaluates most output columns with a
// strictly sequential single-accumulator dot (the four-wide column panels)
// and the ≤3 leftover columns of each jc panel with the four-lane
// interleaved dot; which flavor an element gets depends only on its
// column's position within its panel, which this kernel reproduces.
//
// The four-wide dots run one loop over the rows of the gapped gradient
// span, stepping over the gaps, four output rows at a time over a
// row-interleaved copy of their spans (the lanes), against columns found
// through the colOffsets table, built once per call. The leftover columns
// gather their gradient row and cols row compactly and run the exact
// four-lane dot, whose lane phase the gapped layout would shift.
//
// With AVX2 the four-wide columns run eight at a time through the
// register tile dwTileAVX2 (a last four through dot4x4), and the outC%4
// remainder rows run as the first lanes of a block whose rows past outC
// are zero; what those lanes compute is discarded. With AVX-512 every full
// block of eight rows runs dwTileAVX512 instead, eight columns at a time,
// and the rows after them run as with AVX2. The Go body runs four columns
// per dot4x4 and the remainder rows one at a time.
//
// gpad holds outC·nb gradient planes padded by PadGradPlane, plane
// (oc, bi) at gpad[(oc*nb+bi)*gpStride]; xp holds the padded input planes
// as in ConvFwdPad; wGrad is the dense (outC, inC·k²) gradient,
// accumulated. work and offs are scratch sized by ConvWork, clobbered.
func ConvDWPad(gpad []float64, gpStride int, xp []float64, xpStride int, outC, inC, nb, h, w, k int, wGrad, work []float64, offs []int) {
	hw := h * w
	if hw <= 1 {
		panic("tensor: ConvDWPad requires h*w > 1")
	}
	ickk := inC * k * k
	wp := w + k - 1
	hpwp := (h + k - 1) * wp
	span := (h-1)*wp + w
	nf, ni := ConvWork(outC, inC, h, w, k)
	if nb < 1 || len(gpad) < (outC*nb-1)*gpStride+hpwp || len(xp) < (inC*nb-1)*xpStride+hpwp ||
		len(wGrad) < outC*ickk || len(work) < nf || len(offs) < ni {
		panic("tensor: ConvDWPad buffer lengths too short")
	}
	offs = colOffsets(offs, inC, k, wp, nb*xpStride)
	tiled := level >= levelAVX2
	rows8 := 0 // leading rows that run as lanes of an eight-row block
	if level == levelAVX512 {
		rows8 = outC &^ 7
	}
	rows := outC &^ 3 // rows that run as lanes of a block
	if tiled {
		rows = (outC + 3) &^ 3
	}
	gT := work[:rows*span]
	arow := work[rows*span : rows*span+hw]
	rowBuf := work[rows*span+hw : rows*span+2*hw]
	// A partial last block reads zero spans for its rows past outC and
	// accumulates in cT, four rows of which the first outC%4 are copies of
	// its gradient rows, copied back after the last sample: per element
	// the same chain of additions.
	full := outC &^ 3
	var cT, zero []float64
	if rows > full {
		cT = work[rows*span+2*hw:][:4*ickk]
		copy(cT, wGrad[full*ickk:outC*ickk])
		zero = work[rows*span+2*hw+4*ickk:][:span]
		clear(zero)
	}
	lead := gradLead(k)
	jc := max(4, 32768/hw)
	var s [16]float64
	for bi := 0; bi < nb; bi++ {
		xs := xp[bi*xpStride:]
		gs := gpad[bi*gpStride+lead*wp+lead:] // sample bi's gapped spans
		rowSpan := func(i int) []float64 {
			if i >= outC {
				return zero
			}
			return gs[i*nb*gpStride:][:span]
		}
		for i := 0; i < rows8; i += 8 {
			interleave8(gT[i*span:(i+8)*span], gs[i*nb*gpStride:], nb*gpStride, span)
		}
		for i := rows8; i < rows; i += 4 {
			interleave4(gT[i*span:(i+4)*span], rowSpan(i), rowSpan(i+1), rowSpan(i+2), rowSpan(i+3))
		}
		for j0 := 0; j0 < ickk; j0 += jc {
			j1 := min(j0+jc, ickk)
			jq := j0 + (j1-j0)&^3 // end of the panel's four-wide columns
			// The four-wide panel flavor: per element, one accumulator over
			// the reduction in ascending order, as in GemmNT's panel loop.
			for i := 0; i < rows8; i += 8 {
				g := gT[i*span : (i+8)*span]
				cb := wGrad[i*ickk:] // the block's eight rows, at stride ickk
				for j := j0; j < jq; j += 8 {
					o := offs[j:jq]
					if len(o) < 8 {
						// A last four columns: the tile's other four read
						// offset 0 and are not stored.
						var o8 [8]int
						copy(o8[:], o)
						o = o8[:]
					}
					dwTileAVX512(g, xs, o, cb[j:], ickk, w, k-1, min(8, jq-j))
				}
			}
			for i := rows8; i < rows; i += 4 {
				g := gT[i*span : (i+4)*span]
				cb := wGrad[i*ickk:] // the block's four rows, at stride ickk
				if i == full {
					cb = cT
				}
				j := j0
				if tiled {
					for ; j+7 < jq; j += 8 {
						dwTileAVX2(g, xs, offs[j:j+8], cb[j:], ickk, w, k-1)
					}
				}
				for ; j < jq; j += 4 {
					dot4x4(g, xs[offs[j]:], xs[offs[j+1]:], xs[offs[j+2]:], xs[offs[j+3]:], &s, w, k-1)
					for r := 0; r < 4; r++ {
						crow := cb[r*ickk+j:][:4]
						crow[0] += s[r]
						crow[1] += s[4+r]
						crow[2] += s[8+r]
						crow[3] += s[12+r]
					}
				}
			}
			for i := rows; i < outC; i++ {
				crow := wGrad[i*ickk : (i+1)*ickk]
				gprow := gs[i*nb*gpStride:][:span]
				for j := j0; j < jq; j += 4 {
					p0 := xs[offs[j]:][:span]
					p1 := xs[offs[j+1]:][:span]
					p2 := xs[offs[j+2]:][:span]
					p3 := xs[offs[j+3]:][:span]
					var s0, s1, s2, s3 float64
					for t0 := 0; t0 < span; t0 += wp {
						for t := t0; t < t0+w; t++ {
							av := gprow[t]
							s0 += av * p0[t]
							s1 += av * p1[t]
							s2 += av * p2[t]
							s3 += av * p3[t]
						}
					}
					crow[j] += s0
					crow[j+1] += s1
					crow[j+2] += s2
					crow[j+3] += s3
				}
			}
			if jq == j1 {
				continue
			}
			for i := 0; i < outC; i++ {
				crow := wGrad[i*ickk : (i+1)*ickk]
				if i >= full && cT != nil {
					crow = cT[(i-full)*ickk:][:ickk]
				}
				gprow := gs[i*nb*gpStride:]
				for oy := 0; oy < h; oy++ {
					copy(arow[oy*w:(oy+1)*w], gprow[oy*wp:][:w])
				}
				for j := jq; j < j1; j++ {
					// The leftover flavor: the four-lane interleaved dot over
					// the compact rows, so the lane phase matches the dense
					// layout even when w is not a multiple of four.
					rb := offs[j]
					for oy := 0; oy < h; oy++ {
						copy(rowBuf[oy*w:(oy+1)*w], xs[rb+oy*wp:][:w])
					}
					var s0, s1, s2, s3 float64
					kk := 0
					for ; kk+3 < hw; kk += 4 {
						s0 += arow[kk] * rowBuf[kk]
						s1 += arow[kk+1] * rowBuf[kk+1]
						s2 += arow[kk+2] * rowBuf[kk+2]
						s3 += arow[kk+3] * rowBuf[kk+3]
					}
					s := s0 + s1 + s2 + s3
					for ; kk < hw; kk++ {
						s += arow[kk] * rowBuf[kk]
					}
					crow[j] += s
				}
			}
		}
	}
	if cT != nil {
		copy(wGrad[full*ickk:outC*ickk], cT)
	}
}

// interleave8 writes the eight rows of n elements that start stride apart
// in src into g as g[8t+r] = row r's element t, the lane layout of
// dwTileAVX512.
func interleave8(g, src []float64, stride, n int) {
	g = g[:8*n]
	r0, r1, r2, r3 := src[:n], src[stride:][:n], src[2*stride:][:n], src[3*stride:][:n]
	r4, r5, r6, r7 := src[4*stride:][:n], src[5*stride:][:n], src[6*stride:][:n], src[7*stride:][:n]
	for t, v := range r0 {
		q := g[8*t : 8*t+8 : 8*t+8]
		q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7] = v, r1[t], r2[t], r3[t], r4[t], r5[t], r6[t], r7[t]
	}
}

// interleave4 writes four rows of one length into g as g[4t+r] = row r's
// element t, the lane layout of dot4x4 and dwTileAVX2.
func interleave4(g, r0, r1, r2, r3 []float64) {
	n := len(r0)
	g, r1, r2, r3 = g[:4*n], r1[:n], r2[:n], r3[:n]
	for t, v := range r0 {
		q := g[4*t : 4*t+4 : 4*t+4]
		q[0], q[1], q[2], q[3] = v, r1[t], r2[t], r3[t]
	}
}

// ConvDXPad computes the convolution input gradient dX = col2im(Wᵀ·dY)
// for nb samples without materializing the (inC·k², h·w) dcols matrix,
// bit-identical per sample to GemmTN(inC·k², h·w, outC, weights, grad,
// dcols, false) followed by Col2im(dcols, ...). It runs col2im as a
// gather: a dX element's lowered chain is "for r ascending, add the
// grouped-outC dcols value", and that dcols value lives at a fixed offset
// in the sample's PadGradPlane gradient planes. Positions Col2im would
// have clipped read pad zeros and add ±0 (no-ops); each grouped value is
// GemmTN's exact per-element pattern (aligned four-lane groups over outC
// plus leftover singles), evaluated straight into the accumulator for
// outC ≤ 4 (fact 4 of the package comment) and summed from +0 otherwise,
// as GemmTN sums into its cleared dcols row, before joining the
// accumulator.
//
// gpad holds outC·nb gradient planes padded by PadGradPlane, plane
// (oc, bi) at gpad[(oc*nb+bi)*gpStride] — the planes ConvDWPad reads;
// dx receives inC·nb planes of h·w, plane (ic, bi) at
// dx[(ic*nb+bi)*dxStride], overwritten. work and offs (sized by ConvWork)
// are scratch, clobbered.
//
// With AVX-512 (on planes at least eight wide) or with AVX2 and inC > 1
// (one input channel would fill one lane of its four) the register-tiled
// kernel of conv_tile.go runs, on weights packed once per call. Otherwise each input channel accumulates all k²
// reduction indices into a gapped row (span = (h-1)·(w+k-1)+w) in single
// long sweeps — one per (ic, ky, kx) — whose gap elements collect garbage
// the final interior copy discards.
func ConvDXPad(weights []float64, outC, inC, nb int, gpad []float64, gpStride, h, w, k int, dx []float64, dxStride int, work []float64, offs []int) {
	hw := h * w
	if hw <= 1 {
		panic("tensor: ConvDXPad requires h*w > 1")
	}
	kk2 := k * k
	ickk := inC * kk2
	wp := w + k - 1
	hpwp := (h + k - 1) * wp
	span := (h-1)*wp + w
	nf, ni := ConvWork(outC, inC, h, w, k)
	if nb < 1 || len(weights) < outC*ickk || len(gpad) < (outC*nb-1)*gpStride+hpwp ||
		len(dx) < (inC*nb-1)*dxStride+hw || len(work) < nf || len(offs) < ni {
		panic("tensor: ConvDXPad buffer lengths too short")
	}
	// offs[rr*outC+l]: the offset of dcols row (ic, rr)'s value for output
	// channel l at pixel (0, 0) of a sample — gradient plane l, row k-1-ky,
	// column k-1-kx. Gapped position t = y*wp + x adds t. Always in
	// bounds, zeros where the lowered path had no contribution.
	offs = offs[:kk2*outC]
	i := 0
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			gb := (k-1-ky)*wp + (k - 1 - kx)
			for l := 0; l < outC; l++ {
				offs[i] = l*nb*gpStride + gb
				i++
			}
		}
	}
	if planeTiles(w) || level >= levelAVX2 && inC > 1 {
		wpk := packDX(weights, outC, inC, kk2, w, work)
		for bi := 0; bi < nb; bi++ {
			convDXTiled(wpk, outC, inC, nb, bi, gpad[bi*gpStride:], h, w, k, dx, dxStride, offs)
		}
		return
	}
	pp := work[:span]
	for bi := 0; bi < nb; bi++ {
		gs := gpad[bi*gpStride:]
		for ic := 0; ic < inC; ic++ {
			clear(pp)
			for rr := 0; rr < kk2; rr++ {
				r := ic*kk2 + rr
				o := offs[rr*outC:]
				switch {
				case outC == 1:
					a0 := weights[r]
					g0 := gs[o[0]:][:span]
					for t := range pp {
						pp[t] += a0 * g0[t]
					}
				case outC == 2:
					a0, a1 := weights[r], weights[ickk+r]
					g0 := gs[o[0]:][:span]
					g1 := gs[o[1]:][:span]
					for t := range pp {
						pp[t] += a0*g0[t] + a1*g1[t]
					}
				case outC == 3:
					a0, a1, a2 := weights[r], weights[ickk+r], weights[2*ickk+r]
					g0 := gs[o[0]:][:span]
					g1 := gs[o[1]:][:span]
					g2 := gs[o[2]:][:span]
					for t := range pp {
						pp[t] += a0*g0[t] + a1*g1[t] + a2*g2[t]
					}
				case outC == 4:
					axpy4(pp, weights[r], weights[ickk+r], weights[2*ickk+r], weights[3*ickk+r],
						gs[o[0]:], gs[o[1]:], gs[o[2]:], gs[o[3]:])
				default:
					// GemmTN's aligned four-lane groups over outC, then
					// leftover singles, summed in sr before joining dX.
					sr := work[span : 2*span]
					clear(sr)
					l := 0
					for ; l+3 < outC; l += 4 {
						axpy4(sr, weights[l*ickk+r], weights[(l+1)*ickk+r], weights[(l+2)*ickk+r], weights[(l+3)*ickk+r],
							gs[o[l]:], gs[o[l+1]:], gs[o[l+2]:], gs[o[l+3]:])
					}
					for ; l < outC; l++ {
						av := weights[l*ickk+r]
						grow := gs[o[l]:][:span]
						for t := range sr {
							sr[t] += av * grow[t]
						}
					}
					for t := range pp {
						pp[t] += sr[t]
					}
				}
			}
			dplane := dx[(ic*nb+bi)*dxStride:][:hw]
			for y := 0; y < h; y++ {
				copy(dplane[y*w:(y+1)*w], pp[y*wp:y*wp+w])
			}
		}
	}
}
