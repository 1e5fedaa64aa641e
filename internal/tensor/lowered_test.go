package tensor

import "fmt"

// The lowered convolution: Im2col/Col2im plus the cache-blocked GEMM
// kernels. TestConvFusedMatchesLowered holds the fused padded-plane conv
// kernels (ConvFwdPad ≡ Im2col + GemmNN, ConvDWPad ≡ GemmNT over cols,
// ConvDXPad ≡ GemmTN + Col2im) to these bit for bit, and
// TestMatVecBatchMatchesGemmNN holds MatVecBatch to GemmNN's n==1 path.
//
// GEMM blocking: the j (column) dimension is tiled so the C and B panels
// touched by the inner loops stay cache-resident, and the k (reduction)
// dimension is processed in panels of four with an unrolled inner loop, so
// each pass over a C row amortizes four contiguous B rows.

// gemmNC is the column-panel width: a 512-column f64 panel of C is 4 KiB,
// comfortably L1-resident alongside the four B rows streamed against it.
const gemmNC = 512

// GemmNN computes C = A·B, or C += A·B when acc is true.
// A is m×k, B is k×n, C is m×n, all row-major.
func GemmNN(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmNN", a, b, c, m*k, k*n, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if n == 1 {
		// Matrix–vector fast path (Dense layers): one four-accumulator
		// dot product per output row instead of width-1 panel sweeps.
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			var s0, s1, s2, s3 float64
			kk := 0
			for ; kk+3 < k; kk += 4 {
				s0 += arow[kk] * b[kk]
				s1 += arow[kk+1] * b[kk+1]
				s2 += arow[kk+2] * b[kk+2]
				s3 += arow[kk+3] * b[kk+3]
			}
			s := s0 + s1 + s2 + s3
			for ; kk < k; kk++ {
				s += arow[kk] * b[kk]
			}
			c[i] += s
		}
		return
	}
	for j0 := 0; j0 < n; j0 += gemmNC {
		j1 := min(j0+gemmNC, n)
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			for i := 0; i < m; i++ {
				arow := a[i*k : i*k+k]
				crow := c[i*n+j0 : i*n+j1]
				kk := k0
				for ; kk+3 < k1; kk += 4 {
					axpy4(crow, arow[kk], arow[kk+1], arow[kk+2], arow[kk+3],
						b[kk*n+j0:], b[(kk+1)*n+j0:], b[(kk+2)*n+j0:], b[(kk+3)*n+j0:])
				}
				for ; kk < k1; kk++ {
					av := arow[kk]
					brow := b[kk*n+j0 : kk*n+j1]
					for j := range crow {
						crow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// GemmNT computes C = A·Bᵀ, or C += A·Bᵀ when acc is true.
// A is m×k, B is n×k (used transposed), C is m×n, all row-major. Each C
// element is a dot product of two contiguous rows, evaluated with four
// independent accumulators.
func GemmNT(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmNT", a, b, c, m*k, n*k, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if k == 1 {
		// Rank-1 update fast path (Dense dW with a single column): a plain
		// outer product, so the inner loop streams b and c contiguously
		// instead of issuing length-1 dot products.
		for i := 0; i < m; i++ {
			av := a[i]
			crow := c[i*n : i*n+n]
			for j, bv := range b[:n] {
				crow[j] += av * bv
			}
		}
		return
	}
	// Panel the B rows so one panel is reused across the whole i sweep;
	// ~256 KiB of B per panel.
	jc := max(4, 32768/k)
	for j0 := 0; j0 < n; j0 += jc {
		j1 := min(j0+jc, n)
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			j := j0
			// Four C elements per A-row pass: the conv dW reductions here
			// have short k (k = H·W after pooling, as low as 16), so the
			// dominant cost is loop setup and A-row traffic, both of which
			// this amortizes 4×.
			for ; j+3 < j1; j += 4 {
				b0 := b[j*k : j*k+k]
				b1 := b[(j+1)*k : (j+1)*k+k]
				b2 := b[(j+2)*k : (j+2)*k+k]
				b3 := b[(j+3)*k : (j+3)*k+k]
				var s0, s1, s2, s3 float64
				for kk, av := range arow {
					s0 += av * b0[kk]
					s1 += av * b1[kk]
					s2 += av * b2[kk]
					s3 += av * b3[kk]
				}
				crow[j] += s0
				crow[j+1] += s1
				crow[j+2] += s2
				crow[j+3] += s3
			}
			for ; j < j1; j++ {
				brow := b[j*k : j*k+k]
				var s0, s1, s2, s3 float64
				kk := 0
				for ; kk+3 < k; kk += 4 {
					s0 += arow[kk] * brow[kk]
					s1 += arow[kk+1] * brow[kk+1]
					s2 += arow[kk+2] * brow[kk+2]
					s3 += arow[kk+3] * brow[kk+3]
				}
				s := s0 + s1 + s2 + s3
				for ; kk < k; kk++ {
					s += arow[kk] * brow[kk]
				}
				crow[j] += s
			}
		}
	}
}

// GemmTN computes C = Aᵀ·B, or C += Aᵀ·B when acc is true.
// A is k×m (used transposed), B is k×n, C is m×n, all row-major. The
// reduction runs over rows of A and B, so the inner loop streams
// contiguous B and C rows; only the four per-panel A loads are strided.
func GemmTN(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmTN", a, b, c, k*m, k*n, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if n == 1 {
		// Transposed matrix–vector fast path (Dense dX): accumulate scaled
		// rows of A so every load is contiguous instead of striding down
		// A's columns one element at a time.
		for l := 0; l < k; l++ {
			bv := b[l]
			arow := a[l*m : l*m+m]
			for i, av := range arow {
				c[i] += av * bv
			}
		}
		return
	}
	for j0 := 0; j0 < n; j0 += gemmNC {
		j1 := min(j0+gemmNC, n)
		l := 0
		for ; l+3 < k; l += 4 {
			b0 := b[l*n+j0 : l*n+j1]
			b1 := b[(l+1)*n+j0 : (l+1)*n+j1]
			b2 := b[(l+2)*n+j0 : (l+2)*n+j1]
			b3 := b[(l+3)*n+j0 : (l+3)*n+j1]
			for i := 0; i < m; i++ {
				a0, a1, a2, a3 := a[l*m+i], a[(l+1)*m+i], a[(l+2)*m+i], a[(l+3)*m+i]
				crow := c[i*n+j0 : i*n+j1]
				for j := range crow {
					crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
		}
		for ; l < k; l++ {
			brow := b[l*n+j0 : l*n+j1]
			for i := 0; i < m; i++ {
				av := a[l*m+i]
				crow := c[i*n+j0 : i*n+j1]
				for j := range crow {
					crow[j] += av * brow[j]
				}
			}
		}
	}
}

// Im2col/Col2im lower stride-1, zero-padded 2-D convolution to matrix
// multiplication: each output position becomes one column holding the
// receptive-field patch feeding it, so conv forward is a single GEMM of the
// (outC, inC·k·k) weight matrix against the (inC·k·k, h·w) column matrix.
// Interior spans are bulk-copied; only the padded borders are filled
// element-free with explicit zeroing.

func im2colCheck(name string, x, cols []float64, inC, h, w, k, pad int) {
	if inC < 1 || h < 1 || w < 1 || k < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry inC=%d h=%d w=%d k=%d pad=%d",
			name, inC, h, w, k, pad))
	}
	if len(x) < inC*h*w || len(cols) < inC*k*k*h*w {
		panic(fmt.Sprintf("tensor: %s buffers (%d,%d), need (%d,%d)",
			name, len(x), len(cols), inC*h*w, inC*k*k*h*w))
	}
}

// Im2col unrolls the (inC, h, w) feature map x into the (inC·k·k, h·w)
// column matrix cols for a stride-1 convolution with the given zero
// padding (output spatial size equals input size when pad == (k-1)/2).
// Row (ic·k+ky)·k+kx of cols holds, for every output position (oy, ox),
// x[ic, oy+ky-pad, ox+kx-pad], or zero when that index falls outside the
// map.
func Im2col(x []float64, inC, h, w, k, pad int, cols []float64) {
	im2colCheck("Im2col", x, cols, inC, h, w, k, pad)
	hw := h * w
	r := 0
	for ic := 0; ic < inC; ic++ {
		xc := x[ic*hw : (ic+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[r*hw : (r+1)*hw]
				// Output columns whose sampled ix = ox+kx-pad is in range.
				ox0 := max(0, pad-kx)
				ox1 := min(w, w+pad-kx)
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					drow := dst[oy*w : (oy+1)*w]
					if iy < 0 || iy >= h || ox0 >= ox1 {
						clear(drow)
						continue
					}
					clear(drow[:ox0])
					copy(drow[ox0:ox1], xc[iy*w+ox0+kx-pad:iy*w+ox1+kx-pad])
					clear(drow[ox1:])
				}
				r++
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatter-adds the (inC·k·k, h·w)
// column matrix cols back into the (inC, h, w) map x, overwriting x. It
// maps column-matrix gradients back to input-map gradients in the conv
// backward pass.
func Col2im(cols []float64, inC, h, w, k, pad int, x []float64) {
	im2colCheck("Col2im", x, cols, inC, h, w, k, pad)
	hw := h * w
	clear(x[:inC*hw])
	r := 0
	for ic := 0; ic < inC; ic++ {
		xc := x[ic*hw : (ic+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols[r*hw : (r+1)*hw]
				ox0 := max(0, pad-kx)
				ox1 := min(w, w+pad-kx)
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h || ox0 >= ox1 {
						continue
					}
					srow := src[oy*w+ox0 : oy*w+ox1]
					xrow := xc[iy*w+ox0+kx-pad : iy*w+ox1+kx-pad]
					for j, v := range srow {
						xrow[j] += v
					}
				}
				r++
			}
		}
	}
}
