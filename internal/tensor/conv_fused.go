package tensor

import "fmt"

// Fused (materialization-free) convolution kernels for the batched training
// path. The im2col formulation moves K²× the input volume through cols/dcols
// buffers that are megabytes per sample at paper scale; these kernels read a
// zero-padded copy of the input plane instead, so every value the GEMM would
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
// lowered kernels as oracles. Four structural facts carry the proofs:
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
//  3. Zero terms may be inserted into a chain. ConvDWPad walks the gradient
//     plane as one (h-1)·wp+w span whose k-1 inter-row gap elements are
//     exact zeros (a view into the padded plane), and ConvDXPad gathers
//     from positions Col2im would have clipped, which read pad zeros. Both
//     add av·b = ±0 to a running accumulator — and an accumulator that
//     starts at +0 can never hold -0 under round-to-nearest (x+(-x) = +0;
//     -0 only arises from (-0)+(-0)), so s + (±0) returns s bit-for-bit.
//
//  4. A dcols value's sign of zero never reaches dX (the accumulating dX
//     element is never -0, and t+(+0) == t+(-0) for such t), which licenses
//     evaluating the grouped-outC expression straight into dX for outC ≤ 4
//     instead of adding it to a cleared dcols element first.
//
// The zero-term argument assumes finite inputs: a gap term is av·b with one
// operand exactly ±0, which is ±0 only when the other operand is finite
// (0·Inf = NaN). Training data, weights, and gradients are finite by
// invariant — the lowered path produces garbage on non-finite values anyway.
//
// The long inner loops run on the SIMD primitives of simd.go, which
// vectorize across independent output elements only, so none of the above
// depends on whether their AVX2 or Go body runs.
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
	PadPlaneLead(src, h, w, k, (k-1)/2, dst)
}

// PadPlaneLead is PadPlane with an explicit leading border: source pixel
// (y, x) lands at (y+lead, x+lead) in the (h+k-1, w+k-1) destination. The
// gradient planes use lead = k-1-pad, which orients the plane for the
// gather formulation of col2im (ConvDXPad) while its interior rows, viewed
// from offset lead·wp+lead at stride wp, double as the zero-gapped span
// ConvDWPad's long dots walk.
func PadPlaneLead(src []float64, h, w, k, lead int, dst []float64) {
	hp, wp := h+k-1, w+k-1
	if len(src) < h*w || len(dst) < hp*wp {
		panic(fmt.Sprintf("tensor: PadPlaneLead buffers (%d,%d), need (%d,%d)", len(src), len(dst), h*w, hp*wp))
	}
	clear(dst[:lead*wp])
	for y := 0; y < h; y++ {
		row := dst[(y+lead)*wp : (y+lead+1)*wp]
		clear(row[:lead])
		copy(row[lead:lead+w], src[y*w:(y+1)*w])
		clear(row[lead+w:])
	}
	clear(dst[(h+lead)*wp : hp*wp])
}

// ConvFwdPad computes the stride-1 "same" convolution out = W∗x directly
// from padded input planes, bit-identical to GemmNN(outC, h·w, inC·k²,
// weights, im2col(x), out, false): per output element, reduction indices are
// consumed in aligned four-term grouped expressions within gemmKC panels,
// exactly as GemmNN's inner loops emit them. Each output channel accumulates
// into the gapped scratch row pout (length ≥ (h-1)·(w+k-1)+w, clobbered) in
// single long sweeps — the gap elements collect garbage cross-products that
// the final interior copy discards. No bias is applied.
//
// xp holds inC padded planes of (h+k-1)×(w+k-1); plane ic starts at
// xp[ic*xpStride]. out receives outC rows of h·w; row oc starts at
// out[oc*outStride] and is overwritten.
func ConvFwdPad(weights []float64, outC, inC int, xp []float64, xpStride int, h, w, k int, out []float64, outStride int, pout []float64) {
	hw := h * w
	if hw <= 1 {
		panic("tensor: ConvFwdPad requires h*w > 1")
	}
	kk2 := k * k
	ickk := inC * kk2
	wp := w + k - 1
	span := (h-1)*wp + w
	if len(weights) < outC*ickk || len(xp) < (inC-1)*xpStride+(h+k-1)*wp ||
		len(out) < (outC-1)*outStride+hw || len(pout) < span {
		panic("tensor: ConvFwdPad buffer lengths too short")
	}
	// base(r) is the padded-plane offset of reduction index r = (ic, ky, kx)
	// at output pixel (0, 0); gapped position t = oy*wp + ox adds t.
	base := func(r int) int {
		ic, rem := r/kk2, r%kk2
		return ic*xpStride + (rem/k)*wp + rem%k
	}
	pp := pout[:span]
	for oc := 0; oc < outC; oc++ {
		wrow := weights[oc*ickk : (oc+1)*ickk]
		clear(pp)
		for k0 := 0; k0 < ickk; k0 += gemmKC {
			k1 := min(k0+gemmKC, ickk)
			kk := k0
			for ; kk+3 < k1; kk += 4 {
				a0, a1, a2, a3 := wrow[kk], wrow[kk+1], wrow[kk+2], wrow[kk+3]
				axpy4(pp, a0, a1, a2, a3, xp[base(kk):], xp[base(kk+1):], xp[base(kk+2):], xp[base(kk+3):])
			}
			for ; kk < k1; kk++ {
				av := wrow[kk]
				prow := xp[base(kk):][:span]
				for t := range pp {
					pp[t] += av * prow[t]
				}
			}
		}
		orow := out[oc*outStride : oc*outStride+hw]
		for oy := 0; oy < h; oy++ {
			copy(orow[oy*w:(oy+1)*w], pp[oy*wp:oy*wp+w])
		}
	}
}

// ConvDWPad accumulates the convolution weight gradient dW += dY·im2col(x)ᵀ
// directly from padded input planes, bit-identical to GemmNT(outC, inC·k²,
// h·w, grad, im2col(x), wGrad, true). GemmNT evaluates most output columns
// with a strictly sequential single-accumulator dot (the four-wide column
// panels) and the ≤3 leftover columns of each jc panel with the four-lane
// interleaved dot; which flavor an element gets depends only on its column's
// position within its panel, which this kernel reproduces. The four-wide
// dots run one long loop over the zero-gapped gradient span gp (gap terms
// add ±0 — no-ops): four output rows at a time through dot4x4 over a
// row-interleaved copy of their spans in gT (scratch, at least
// (outC&^3)·span long, span = (h-1)·(w+k-1)+w), and the outC%4 remaining
// rows four columns at a time. The leftover columns gather their cols row
// into rowBuf (h·w scratch) and run the exact four-lane dot over the compact
// row, whose lane phase the gapped layout would shift.
//
// grad holds outC compact rows of h·w starting at grad[oc*gStride]; gp holds
// the same gradient rows at stride wp = w+k-1 with exact zeros in the k-1
// gap elements between rows (the interior view of a PadPlaneLead plane),
// channel oc starting at gp[oc*gpStride]; xp as in ConvFwdPad; wGrad is the
// dense (outC, inC·k²) gradient, accumulated.
func ConvDWPad(grad []float64, gStride int, gp []float64, gpStride int, xp []float64, xpStride int, outC, inC, h, w, k int, wGrad []float64, gT, rowBuf []float64) {
	hw := h * w
	if hw <= 1 {
		panic("tensor: ConvDWPad requires h*w > 1")
	}
	kk2 := k * k
	ickk := inC * kk2
	wp := w + k - 1
	span := (h-1)*wp + w
	rows4 := outC &^ 3
	if len(grad) < (outC-1)*gStride+hw || len(gp) < (outC-1)*gpStride+span ||
		len(xp) < (inC-1)*xpStride+(h+k-1)*wp ||
		len(wGrad) < outC*ickk || len(gT) < rows4*span || len(rowBuf) < hw {
		panic("tensor: ConvDWPad buffer lengths too short")
	}
	base := func(r int) int {
		ic, rem := r/kk2, r%kk2
		return ic*xpStride + (rem/k)*wp + rem%k
	}
	for i := 0; i < rows4; i++ {
		g := gT[(i&^3)*span:]
		r := i & 3
		for t, v := range gp[i*gpStride : i*gpStride+span] {
			g[4*t+r] = v
		}
	}
	var s [16]float64
	jc := max(4, 32768/hw)
	for j0 := 0; j0 < ickk; j0 += jc {
		j1 := min(j0+jc, ickk)
		jq := j0 + (j1-j0)&^3 // end of the panel's four-wide columns
		// The four-wide panel flavor: per element, one accumulator over the
		// reduction in ascending order, as in GemmNT's panel loop.
		for i := 0; i < rows4; i += 4 {
			g := gT[i*span : (i+4)*span]
			c0 := wGrad[i*ickk : (i+1)*ickk]
			c1 := wGrad[(i+1)*ickk : (i+2)*ickk]
			c2 := wGrad[(i+2)*ickk : (i+3)*ickk]
			c3 := wGrad[(i+3)*ickk : (i+4)*ickk]
			for j := j0; j < jq; j += 4 {
				dot4x4(g, xp[base(j):], xp[base(j+1):], xp[base(j+2):], xp[base(j+3):], &s)
				for c := 0; c < 4; c++ {
					c0[j+c] += s[4*c]
					c1[j+c] += s[4*c+1]
					c2[j+c] += s[4*c+2]
					c3[j+c] += s[4*c+3]
				}
			}
		}
		for i := rows4; i < outC; i++ {
			crow := wGrad[i*ickk : (i+1)*ickk]
			gprow := gp[i*gpStride : i*gpStride+span]
			for j := j0; j < jq; j += 4 {
				p0 := xp[base(j):][:span]
				p1 := xp[base(j+1):][:span]
				p2 := xp[base(j+2):][:span]
				p3 := xp[base(j+3):][:span]
				var s0, s1, s2, s3 float64
				for t, av := range gprow {
					s0 += av * p0[t]
					s1 += av * p1[t]
					s2 += av * p2[t]
					s3 += av * p3[t]
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
			arow := grad[i*gStride : i*gStride+hw]
			for j := jq; j < j1; j++ {
				// The leftover flavor: the four-lane interleaved dot. Gather
				// the cols row once so the lane phase matches the dense
				// layout even when w is not a multiple of four.
				rb := base(j)
				for oy := 0; oy < h; oy++ {
					copy(rowBuf[oy*w:(oy+1)*w], xp[rb+oy*wp:][:w])
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

// ConvDXPad computes the convolution input gradient dX = col2im(Wᵀ·dY)
// without materializing the (inC·k², h·w) dcols matrix, bit-identical to
// GemmTN(inC·k², h·w, outC, weights, grad, dcols, false) followed by
// Col2im(dcols, ...). It runs col2im as a gather: a dX element's lowered
// chain is "for r ascending, add the grouped-outC dcols value", and that
// dcols value lives at a fixed offset in the zero-padded gradient planes.
// Built like ConvFwdPad, each input channel accumulates all k² reduction
// indices into the gapped scratch row pacc (length ≥ span = (h-1)·(w+k-1)+w,
// clobbered) in single long sweeps — one per (ic, ky, kx) — whose gap
// elements collect garbage the final interior copy discards. Positions
// Col2im would have clipped read pad zeros and add ±0 (no-ops); each grouped
// value is GemmTN's exact per-element pattern (aligned four-lane groups over
// outC plus leftover singles), evaluated straight into pacc for outC ≤ 4
// (fact 4 of the package comment) and summed from +0 in the span-length
// scratch row srow (needed only for outC > 4) otherwise, as GemmTN sums
// into its cleared dcols row.
//
// gpad holds outC gradient planes padded by PadPlaneLead with
// lead = k-1-(k-1)/2, plane oc starting at gpad[oc*gpadStride]; dx receives
// inC compact planes of h·w starting at dx[ic*dxStride], overwritten.
func ConvDXPad(weights []float64, outC, inC int, gpad []float64, gpadStride int, h, w, k int, dx []float64, dxStride int, pacc, srow []float64) {
	hw := h * w
	if hw <= 1 {
		panic("tensor: ConvDXPad requires h*w > 1")
	}
	kk2 := k * k
	ickk := inC * kk2
	wp := w + k - 1
	span := (h-1)*wp + w
	if len(weights) < outC*ickk || len(gpad) < (outC-1)*gpadStride+(h+k-1)*wp ||
		len(dx) < (inC-1)*dxStride+hw || len(pacc) < span || (outC > 4 && len(srow) < span) {
		panic("tensor: ConvDXPad buffer lengths too short")
	}
	pp := pacc[:span]
	for ic := 0; ic < inC; ic++ {
		clear(pp)
		for rr := 0; rr < kk2; rr++ {
			r := ic*kk2 + rr
			// dcols row r at output pixel (y, x) reads the padded gradient
			// at plane row y+(k-1)-ky, column x+(k-1)-kx — gapped position
			// t = y*wp + x plus gb. Always in bounds, zeros where the
			// lowered path had no contribution.
			gb := (k-1-rr/k)*wp + (k - 1 - rr%k)
			switch {
			case outC == 1:
				a0 := weights[r]
				g0 := gpad[gb:][:span]
				for t := range pp {
					pp[t] += a0 * g0[t]
				}
			case outC == 2:
				a0, a1 := weights[r], weights[ickk+r]
				g0 := gpad[gb:][:span]
				g1 := gpad[gpadStride+gb:][:span]
				for t := range pp {
					pp[t] += a0*g0[t] + a1*g1[t]
				}
			case outC == 3:
				a0, a1, a2 := weights[r], weights[ickk+r], weights[2*ickk+r]
				g0 := gpad[gb:][:span]
				g1 := gpad[gpadStride+gb:][:span]
				g2 := gpad[2*gpadStride+gb:][:span]
				for t := range pp {
					pp[t] += a0*g0[t] + a1*g1[t] + a2*g2[t]
				}
			case outC == 4:
				axpy4(pp, weights[r], weights[ickk+r], weights[2*ickk+r], weights[3*ickk+r],
					gpad[gb:], gpad[gpadStride+gb:], gpad[2*gpadStride+gb:], gpad[3*gpadStride+gb:])
			default:
				// GemmTN's aligned four-lane groups over outC, then
				// leftover singles, summed in sr before joining dX.
				sr := srow[:span]
				clear(sr)
				l := 0
				for ; l+3 < outC; l += 4 {
					axpy4(sr, weights[l*ickk+r], weights[(l+1)*ickk+r], weights[(l+2)*ickk+r], weights[(l+3)*ickk+r],
						gpad[l*gpadStride+gb:], gpad[(l+1)*gpadStride+gb:], gpad[(l+2)*gpadStride+gb:], gpad[(l+3)*gpadStride+gb:])
				}
				for ; l < outC; l++ {
					av := weights[l*ickk+r]
					grow := gpad[l*gpadStride+gb:][:span]
					for t := range sr {
						sr[t] += av * grow[t]
					}
				}
				for t := range pp {
					pp[t] += sr[t]
				}
			}
		}
		dplane := dx[ic*dxStride : ic*dxStride+hw]
		for y := 0; y < h; y++ {
			copy(dplane[y*w:(y+1)*w], pp[y*wp:y*wp+w])
		}
	}
}
